// Command experiments reproduces the DSN'09 evaluation: it sweeps the
// TPC-W browsing mix over registered server variants and prints the
// paper's tables and figures. Variants come from the internal/variant
// registry, so a newly registered topology is available here with zero
// edits (-variants name1,name2,...).
//
// Usage:
//
//	experiments -exp all                 # everything (one run per variant)
//	experiments -exp table3              # response times
//	experiments -exp table4              # per-page throughput
//	experiments -exp table2              # t_reserve controller trace
//	experiments -exp fig7,fig8,fig9,fig10
//	experiments -exp spike               # flash-crowd comparison across variants
//	experiments -exp mvcc -variants modified       # storage-engine sweep
//	experiments -exp planner             # secondary-index / query-planner sweep
//	experiments -exp scaleout            # replica scale-out sweep
//	experiments -exp shard -shards 1,2,4           # cluster shard sweep
//	experiments -exp faults              # dependability scenario pack
//	experiments -scale 100 -ebs 400 -measure 50m   # paper-sized run
//	experiments -quick                   # reduced run (seconds)
//	experiments -variants unmodified,modified,modified-noreserve
//	experiments -set cutoff=3s -set minreserve=15  # variant settings
//	experiments -load spike -load-set burst=300 -load-set at=2m -load-set width=1m
//	experiments -mix shopping            # TPC-W shopping mix (default browsing)
//	experiments -ebs-sweep 100,200,300,400         # saturation-knee ramp
//	experiments -csv dir                 # dump every series as CSV
//	experiments -json dir                # per-scenario result JSON artifacts
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/faults"
	"stagedweb/internal/harness"
	"stagedweb/internal/load"
	"stagedweb/internal/sched"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiments: all, table2, table3, table4, fig7, fig8, fig9, fig10 (comma-separated); spike runs the flash-crowd comparison; scaleout runs the replica sweep; mvcc runs the storage-engine sweep; planner runs the secondary-index sweep; shard runs the cluster shard sweep; faults runs the fault-injection comparison")
		scale    = fs.Float64("scale", 100, "timescale: paper seconds per wall second")
		ebs      = fs.Int("ebs", 0, "emulated browsers (0 = config default)")
		measure  = fs.Duration("measure", 0, "measurement window in paper time (0 = config default)")
		quick    = fs.Bool("quick", false, "use the reduced quick configuration")
		csvDir   = fs.String("csv", "", "directory to write per-series CSVs into")
		jsonDir  = fs.String("json", "", "directory to write per-scenario result JSON into")
		seed     = fs.Int64("seed", 1, "workload seed")
		variants = fs.String("variants", variant.Unmodified+","+variant.Modified,
			"comma-separated registered variants; the first is the comparison baseline (registered: "+strings.Join(variant.Names(), ", ")+")")
		loadProf = fs.String("load", "", "load profile driving the client side (registered: "+strings.Join(load.Names(), ", ")+"; empty = steady)")
		mix      = fs.String("mix", "", "TPC-W page mix: "+strings.Join(tpcw.MixNames(), ", ")+" (empty = browsing)")
		ebsSweep = fs.String("ebs-sweep", "", "comma-separated EB levels (e.g. 100,200,300,400): run the saturation ramp across every variant")
		replicas = fs.String("replicas", "1,2,4", "comma-separated replica counts swept by -exp scaleout and -exp mvcc (-exp shard uses the first level only)")
		shards   = fs.String("shards", "1,2,4", "comma-separated shard counts swept by -exp shard")
		parallel = fs.Int("parallel", 1, "concurrent sweep runs (>1 trades timing fidelity for wall time)")
		sets     variant.SettingsFlag
		loadSets variant.SettingsFlag
	)
	fs.Var(&sets, "set", "variant setting `key=value` (repeatable), e.g. -set cutoff=3s")
	fs.Var(&loadSets, "load-set", "load-profile setting `key=value` (repeatable), e.g. -load-set burst=300")
	if err := fs.Parse(args); err != nil {
		return err
	}
	overrides := sets.Settings
	names := splitList(*variants)
	if len(names) == 0 {
		return fmt.Errorf("no variants selected")
	}
	if *loadProf != "" {
		if _, ok := load.Lookup(*loadProf); !ok {
			return fmt.Errorf("unknown load profile %q (registered: %s)",
				*loadProf, strings.Join(load.Names(), ", "))
		}
	}

	build := func(name string) harness.Config {
		var cfg harness.Config
		if *quick {
			cfg = harness.QuickConfig(name, clock.Timescale(*scale))
		} else {
			cfg = harness.PaperConfig(name, clock.Timescale(*scale))
		}
		if *ebs > 0 {
			cfg.EBs = *ebs
		}
		if *measure > 0 {
			cfg.Measure = *measure
		}
		cfg.Seed = *seed
		cfg.Set = overrides.Clone()
		cfg.Load = *loadProf
		cfg.LoadSet = loadSets.Settings.Clone()
		cfg.Mix = *mix
		return cfg
	}

	ctx := context.Background()
	progress := func(sc harness.Scenario, res *harness.Result, err error) {
		if err != nil {
			fmt.Fprintf(out, "  %s failed: %v\n", sc.Name, err)
			return
		}
		fmt.Fprintf(out, "  %s done in %v wall (%d interactions)\n",
			sc.Name, res.WallDuration.Round(time.Millisecond), res.TotalInteractions)
	}
	opts := harness.SweepOptions{Parallelism: *parallel, OnResult: progress}

	want := map[string]bool{}
	for _, e := range splitList(*exp) {
		want[e] = true
	}
	all := want["all"]

	// The EB ramp is its own mode: variants × load levels, reported as
	// the saturation-knee table. It cannot be combined with the spike
	// mode — reject instead of silently dropping one of them.
	if *ebsSweep != "" {
		if want["spike"] || want["scaleout"] || want["mvcc"] || want["planner"] || want["shard"] || want["faults"] {
			return fmt.Errorf("-ebs-sweep and -exp %s are separate modes; run them separately", *exp)
		}
		levels, err := parseInts(*ebsSweep)
		if err != nil {
			return fmt.Errorf("-ebs-sweep: %w", err)
		}
		return runEBSweep(ctx, out, opts, build, names, levels, *csvDir, *jsonDir)
	}

	// The replica sweep is its own mode too: every variant at every
	// replica count, under both the read-heavy browsing mix and the
	// write-heavy ordering mix.
	if want["scaleout"] {
		if len(want) > 1 {
			return fmt.Errorf("-exp scaleout is a standalone mode; run other experiments separately")
		}
		if *mix != "" {
			return fmt.Errorf("-exp scaleout sweeps the browsing and ordering mixes itself; drop -mix %s", *mix)
		}
		levels, err := parseInts(*replicas)
		if err != nil {
			return fmt.Errorf("-replicas: %w", err)
		}
		return runScaleout(ctx, out, opts, build, names, levels, *csvDir, *jsonDir)
	}

	// The cluster sweep is its own mode: one variant behind the
	// consistent-hash balancer at every shard count, held at a fixed
	// replica count, under the open-loop profile — offered load does not
	// shrink when one shard saturates, so added shards turn directly
	// into completed work.
	if want["shard"] {
		if len(want) > 1 {
			return fmt.Errorf("-exp shard is a standalone mode; run other experiments separately")
		}
		if *loadProf != "" {
			return fmt.Errorf("-exp shard runs the open-loop profile; drop -load %s (use -load-set to tune rate/session)", *loadProf)
		}
		levels, err := parseInts(*shards)
		if err != nil {
			return fmt.Errorf("-shards: %w", err)
		}
		repl, err := parseInts(*replicas)
		if err != nil {
			return fmt.Errorf("-replicas: %w", err)
		}
		return runShard(ctx, out, opts, build, names[0], levels, repl[0],
			loadSets.Settings, *csvDir, *jsonDir)
	}

	// The dependability pack is its own mode: one variant on the sharded
	// replicated stack, {no-fault, replica-kill, shard-down} × {sync,
	// async}, reporting failover behavior and recovery time per cell.
	if want["faults"] {
		if len(want) > 1 {
			return fmt.Errorf("-exp faults is a standalone mode; run other experiments separately")
		}
		return runFaults(ctx, out, opts, build, names[0], *csvDir, *jsonDir)
	}

	// The storage-engine sweep is its own mode: one variant across
	// {lock/sync, mvcc/sync, mvcc/async} engines, both TPC-W mixes, and
	// every replica count.
	if want["mvcc"] {
		if len(want) > 1 {
			return fmt.Errorf("-exp mvcc is a standalone mode; run other experiments separately")
		}
		if *mix != "" {
			return fmt.Errorf("-exp mvcc sweeps the browsing and ordering mixes itself; drop -mix %s", *mix)
		}
		levels, err := parseInts(*replicas)
		if err != nil {
			return fmt.Errorf("-replicas: %w", err)
		}
		return runMVCC(ctx, out, opts, build, names[0], levels, *csvDir, *jsonDir)
	}

	// The planner sweep is its own mode: one variant under both TPC-W
	// mixes with the extra secondary indexes off and on, re-running the
	// paper's quick/lengthy page classification under indexing.
	if want["planner"] {
		if len(want) > 1 {
			return fmt.Errorf("-exp planner is a standalone mode; run other experiments separately")
		}
		if *mix != "" {
			return fmt.Errorf("-exp planner sweeps the browsing and ordering mixes itself; drop -mix %s", *mix)
		}
		return runPlanner(ctx, out, opts, build, names[0], *csvDir, *jsonDir)
	}

	// The flash-crowd comparison is its own mode (not part of -exp all):
	// every variant meets the spike profile, and the report reads the
	// client.* series through the burst. It cannot be combined with the
	// table/figure experiments or a -load override — reject instead of
	// silently dropping either.
	if want["spike"] {
		if len(want) > 1 {
			return fmt.Errorf("-exp spike is a standalone mode; run other experiments separately")
		}
		if *loadProf != "" {
			return fmt.Errorf("-exp spike runs the spike profile; drop -load %s (use -load-set to tune the burst)", *loadProf)
		}
		return runSpike(ctx, out, opts, build, names, loadSets.Settings, *csvDir, *jsonDir)
	}

	// Table 2 needs no server runs: replay the paper's t_spare trace
	// through the reserve controller.
	if all || want["table2"] {
		fmt.Fprintln(out, table2())
	}
	needRuns := all || want["table3"] || want["table4"] ||
		want["fig7"] || want["fig8"] || want["fig9"] || want["fig10"]
	if !needRuns {
		return nil
	}

	scenarios := make([]harness.Scenario, 0, len(names))
	for _, name := range names {
		scenarios = append(scenarios, harness.Scenario{Name: name, Config: build(name)})
	}
	fmt.Fprintf(out, "running %d variant(s) (%d EBs, %v measured, scale %.0fx)...\n",
		len(scenarios), scenarios[0].Config.EBs, scenarios[0].Config.Measure, *scale)
	// A failed cell must not discard the completed ones: render whatever
	// ran, emit its artifacts, and surface the error at the end.
	sw, sweepErr := harness.SweepWith(ctx, opts, scenarios)
	fmt.Fprintln(out)

	// Tables and figures compare the first two variants; further
	// variants still run, land in the report, and emit artifacts.
	if base, test := sw.Result(names[0]), resultAt(sw, names, 1); base != nil && test != nil {
		if all || want["table3"] {
			fmt.Fprintln(out, harness.Table3(base, test))
		}
		if all || want["table4"] {
			fmt.Fprintln(out, harness.Table4(base, test))
		}
		if all || want["fig7"] {
			fmt.Fprintln(out, harness.Figure7(base))
		}
		if all || want["fig8"] {
			fmt.Fprintln(out, harness.Figure8(test))
		}
		if all || want["fig9"] {
			fmt.Fprintln(out, harness.Figure9(base, test))
		}
		if all || want["fig10"] {
			fmt.Fprintln(out, harness.Figure10(base, test))
		}
	} else if len(names) < 2 {
		fmt.Fprintln(out, "(tables and figures compare two variants; pass -variants base,test to render them)")
	}
	fmt.Fprintln(out, sw.Report())
	return errors.Join(sweepErr, writeArtifacts(out, *csvDir, *jsonDir, sw))
}

// resultAt returns the i-th selected variant's result, nil when fewer
// variants were selected or that cell failed.
func resultAt(sw *harness.SweepResult, names []string, i int) *harness.Result {
	if i >= len(names) {
		return nil
	}
	return sw.Result(names[i])
}

// runSpike runs the variant × spike-profile matrix and reports how each
// topology rode out the flash crowd: completed work, failures, the peak
// offered population, and the worst per-second client WIRT.
func runSpike(ctx context.Context, out io.Writer, opts harness.SweepOptions,
	build func(string) harness.Config, names []string, loadSet variant.Settings,
	csvDir, jsonDir string) error {
	scenarios := harness.Matrix(build(""), names,
		[]harness.LoadSpec{{Profile: load.Spike, Set: loadSet}})
	fmt.Fprintf(out, "flash crowd: %d variant(s) through the spike profile...\n", len(names))
	sw, sweepErr := harness.SweepWith(ctx, opts, scenarios)

	fmt.Fprintf(out, "\nspike comparison (client.* series through the burst)\n")
	fmt.Fprintf(out, "%-28s %13s %8s %9s %12s\n",
		"variant", "interactions", "errors", "peak-ebs", "worst-wirt")
	fmt.Fprintln(out, strings.Repeat("-", 74))
	for _, name := range names {
		res := sw.Result(name + "/" + load.Spike)
		if res == nil {
			fmt.Fprintf(out, "%-28s (failed)\n", name)
			continue
		}
		fmt.Fprintf(out, "%-28s %13d %8d %9.0f %10.2fs\n",
			name, res.TotalInteractions, res.Errors,
			harness.SeriesMax(res.Series[load.ProbeActive]),
			harness.SeriesMax(res.Series[load.ProbeWIRT]))
	}
	if len(names) >= 2 {
		fmt.Fprintf(out, "throughput gain through the crowd: %+.1f%%\n",
			sw.GainPercent(names[0]+"/"+load.Spike, names[1]+"/"+load.Spike))
	}
	fmt.Fprintln(out)
	return errors.Join(sweepErr, writeArtifacts(out, csvDir, jsonDir, sw))
}

// sizeDBConns sizes the per-backend connection pool of the database-tier
// sweeps (scaleout, mvcc, planner, shard, faults) unless Set already
// names one (-set dbconns=K): a sixth of the dynamic-worker budget, at
// least 2, so connection acquisition (db.wait) and engine capacity, not
// worker counts, bound throughput. Without staged pool sizes it is 8.
func sizeDBConns(c *harness.Config) {
	if _, ok := c.Set["dbconns"]; ok {
		return
	}
	sizes := c.Defaults.Merge(c.Set)
	general, _ := strconv.Atoi(sizes["general"])
	lengthy, _ := strconv.Atoi(sizes["lengthy"])
	n := 8
	if budget := general + lengthy; budget > 0 {
		n = max(2, budget/6)
	}
	c.Set["dbconns"] = strconv.Itoa(n)
}

// runScaleout runs every variant at every replica count under the
// read-heavy browsing mix and the write-heavy ordering mix, with the
// per-backend connection pool deliberately scarcer than the worker pools
// so the database tier — not the workers — is the ceiling. Browsing
// throughput should rise with replica count (reads route round-robin
// across backends); ordering throughput pays the synchronous write
// fan-out on every backend.
func runScaleout(ctx context.Context, out io.Writer, opts harness.SweepOptions,
	build func(string) harness.Config, names []string, levels []int,
	csvDir, jsonDir string) error {
	mixes := []string{"browsing", "ordering"}
	cellName := func(name, mix string, level int) string {
		return fmt.Sprintf("%s/%s/replicas=%d", name, mix, level)
	}
	var scenarios []harness.Scenario
	for _, name := range names {
		for _, mix := range mixes {
			for _, level := range levels {
				cfg := build(name).With(func(c *harness.Config) {
					c.Mix = mix
					c.Set["replicas"] = strconv.Itoa(level)
					sizeDBConns(c)
				})
				scenarios = append(scenarios, harness.Scenario{
					Name:   cellName(name, mix, level),
					Config: cfg,
				})
			}
		}
	}
	fmt.Fprintf(out, "scale-out: %d variant(s) x {browsing, ordering} x %d replica levels...\n",
		len(names), len(levels))
	sw, sweepErr := harness.SweepWith(ctx, opts, scenarios)

	fmt.Fprintf(out, "\nreplica scale-out (interactions per measurement window)\n")
	fmt.Fprintf(out, "%9s", "replicas")
	for _, name := range names {
		for _, mix := range mixes {
			fmt.Fprintf(out, " %22s", name+"/"+mix)
		}
	}
	fmt.Fprintln(out)
	for _, level := range levels {
		fmt.Fprintf(out, "%9d", level)
		for _, name := range names {
			for _, mix := range mixes {
				res := sw.Result(cellName(name, mix, level))
				if res == nil {
					fmt.Fprintf(out, " %22s", "-")
					continue
				}
				fmt.Fprintf(out, " %22d", res.TotalInteractions)
			}
		}
		fmt.Fprintln(out)
	}
	if len(levels) >= 2 {
		lo, hi := levels[0], levels[len(levels)-1]
		for _, name := range names {
			for _, mix := range mixes {
				fmt.Fprintf(out, "%s gain at %d vs %d replicas: %+.1f%%\n",
					name+"/"+mix, hi, lo,
					sw.GainPercent(cellName(name, mix, lo), cellName(name, mix, hi)))
			}
		}
	}
	fmt.Fprintln(out)
	return errors.Join(sweepErr, writeArtifacts(out, csvDir, jsonDir, sw))
}

// engineModes are the storage-engine configurations swept by -exp mvcc:
// the paper's per-table reader-writer locks with synchronous replica
// fan-out, MVCC snapshot reads with the same synchronous contract, and
// MVCC with asynchronous log shipping.
var engineModes = []struct {
	key  string
	mvcc string
	repl string
}{
	{"lock/sync", "off", "sync"},
	{"mvcc/sync", "on", "sync"},
	{"mvcc/async", "on", "async"},
}

// runMVCC runs one variant across every storage-engine mode, both TPC-W
// mixes, and every replica count. Under the read-heavy browsing mix,
// mvcc modes should beat lock/sync as replicas grow (snapshot reads
// never wait on writers); under the write-heavy ordering mix, repl=async
// should keep DML latency flat as replicas grow while repl=sync pays a
// per-replica apply wait. The db.conflicts and db.repllag series in each
// cell's artifacts show what the engine actually did.
func runMVCC(ctx context.Context, out io.Writer, opts harness.SweepOptions,
	build func(string) harness.Config, name string, levels []int,
	csvDir, jsonDir string) error {
	mixes := []string{"browsing", "ordering"}
	cellName := func(engine, mix string, level int) string {
		return fmt.Sprintf("%s/%s/%s/replicas=%d", name, engine, mix, level)
	}
	var scenarios []harness.Scenario
	for _, eng := range engineModes {
		for _, mix := range mixes {
			for _, level := range levels {
				eng := eng
				cfg := build(name).With(func(c *harness.Config) {
					c.Mix = mix
					c.Set["replicas"] = strconv.Itoa(level)
					c.Set["mvcc"] = eng.mvcc
					c.Set["repl"] = eng.repl
					sizeDBConns(c)
				})
				scenarios = append(scenarios, harness.Scenario{
					Name:   cellName(eng.key, mix, level),
					Config: cfg,
				})
			}
		}
	}
	fmt.Fprintf(out, "storage engines: %s x %d engine modes x {browsing, ordering} x %d replica levels...\n",
		name, len(engineModes), len(levels))
	sw, sweepErr := harness.SweepWith(ctx, opts, scenarios)

	fmt.Fprintf(out, "\nstorage-engine sweep (interactions per measurement window)\n")
	fmt.Fprintf(out, "%9s", "replicas")
	for _, eng := range engineModes {
		for _, mix := range mixes {
			fmt.Fprintf(out, " %20s", eng.key+"/"+mix)
		}
	}
	fmt.Fprintln(out)
	for _, level := range levels {
		fmt.Fprintf(out, "%9d", level)
		for _, eng := range engineModes {
			for _, mix := range mixes {
				res := sw.Result(cellName(eng.key, mix, level))
				if res == nil {
					fmt.Fprintf(out, " %20s", "-")
					continue
				}
				fmt.Fprintf(out, " %20d", res.TotalInteractions)
			}
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintf(out, "\nengine behavior (sampled db.* series per cell)\n")
	fmt.Fprintf(out, "%-40s %12s %12s %12s\n", "cell", "conflicts", "snapshots", "max-repllag")
	fmt.Fprintln(out, strings.Repeat("-", 80))
	for _, eng := range engineModes {
		for _, mix := range mixes {
			for _, level := range levels {
				res := sw.Result(cellName(eng.key, mix, level))
				if res == nil {
					continue
				}
				fmt.Fprintf(out, "%-40s %12.0f %12.0f %12.0f\n",
					cellName(eng.key, mix, level),
					harness.SeriesMax(res.Series[variant.ProbeDBConflicts]),
					harness.SeriesMax(res.Series[variant.ProbeDBSnapshots]),
					harness.SeriesMax(res.Series[variant.ProbeDBReplLag]))
			}
		}
	}
	hi := levels[len(levels)-1]
	for _, mix := range mixes {
		fmt.Fprintf(out, "mvcc/sync gain over lock/sync at %d replicas (%s): %+.1f%%\n",
			hi, mix,
			sw.GainPercent(cellName("lock/sync", mix, hi), cellName("mvcc/sync", mix, hi)))
		fmt.Fprintf(out, "mvcc/async gain over lock/sync at %d replicas (%s): %+.1f%%\n",
			hi, mix,
			sw.GainPercent(cellName("lock/sync", mix, hi), cellName("mvcc/async", mix, hi)))
	}
	fmt.Fprintln(out)
	return errors.Join(sweepErr, writeArtifacts(out, csvDir, jsonDir, sw))
}

// plannerCutoffPaperSec is the paper's quick/lengthy page boundary in
// paper seconds: pages whose mean WIRT sits under it belong in the
// quick class (general pool), over it in the lengthy class.
const plannerCutoffPaperSec = 2.0

// runPlanner runs one variant under both TPC-W mixes with the extra
// secondary indexes off and on, re-running the paper's quick/lengthy
// page classification under indexing. With indexes on, the planner
// turns the best-sellers window and the subject listings into index
// range scans and probes — pages whose mean WIRT crosses back under
// the 2 s cutoff are flagged, because they would now belong in the
// quick pool. The title/author LIKE searches stay scans, so some
// lengthy pages must not move. The db.plan.* series in each cell's
// artifacts show what the planner actually chose.
func runPlanner(ctx context.Context, out io.Writer, opts harness.SweepOptions,
	build func(string) harness.Config, name string,
	csvDir, jsonDir string) error {
	mixes := []string{"browsing", "ordering"}
	idxModes := []string{"off", "on"}
	cellName := func(mix, ix string) string {
		return fmt.Sprintf("%s/%s/indexes=%s", name, mix, ix)
	}
	var scenarios []harness.Scenario
	for _, mix := range mixes {
		for _, ix := range idxModes {
			mix, ix := mix, ix
			cfg := build(name).With(func(c *harness.Config) {
				c.Mix = mix
				c.Set["indexes"] = ix
				// Light load: the quick/lengthy classification is about each
				// page's service demand, and a saturated run buries that
				// under queueing delay. A fifth of the configured browsers
				// keeps every pool below its knee so the means measure the
				// queries, not the queues.
				c.EBs = max(8, c.EBs/5)
				sizeDBConns(c)
			})
			scenarios = append(scenarios, harness.Scenario{
				Name:   cellName(mix, ix),
				Config: cfg,
			})
		}
	}
	fmt.Fprintf(out, "query planner: %s x {browsing, ordering} x {indexes off, on}...\n", name)
	sw, sweepErr := harness.SweepWith(ctx, opts, scenarios)

	fmt.Fprintf(out, "\nplanner behavior (sampled db.plan.* series per cell)\n")
	fmt.Fprintf(out, "%-36s %13s %10s %10s %12s\n",
		"cell", "interactions", "scans", "idx-paths", "rows-read")
	fmt.Fprintln(out, strings.Repeat("-", 86))
	for _, mix := range mixes {
		for _, ix := range idxModes {
			res := sw.Result(cellName(mix, ix))
			if res == nil {
				fmt.Fprintf(out, "%-36s (failed)\n", cellName(mix, ix))
				continue
			}
			fmt.Fprintf(out, "%-36s %13d %10.0f %10.0f %12.0f\n",
				cellName(mix, ix), res.TotalInteractions,
				harness.SeriesMax(res.Series[variant.ProbeDBPlanScan]),
				harness.SeriesMax(res.Series[variant.ProbeDBPlanIndex]),
				harness.SeriesMax(res.Series[variant.ProbeDBPlanRows]))
		}
	}

	// The quick/lengthy boundary, re-run under indexing: per-page mean
	// WIRT with indexes off vs on, against the paper's 2 s cutoff.
	for _, mix := range mixes {
		off, on := sw.Result(cellName(mix, "off")), sw.Result(cellName(mix, "on"))
		if off == nil || on == nil {
			continue
		}
		fmt.Fprintf(out, "\nquick/lengthy boundary under indexing (%s mix, cutoff %.0fs)\n",
			mix, plannerCutoffPaperSec)
		fmt.Fprintf(out, "%-36s %12s %12s %9s %18s\n",
			"web page name", "indexes=off", "indexes=on", "speedup", "class")
		fmt.Fprintln(out, strings.Repeat("-", 92))
		crossed := 0
		for _, page := range tpcw.Pages {
			o, n := off.Pages[page], on.Pages[page]
			if o.Count == 0 || n.Count == 0 {
				continue
			}
			speedup := "-"
			if n.MeanPaperSec > 0 {
				speedup = fmt.Sprintf("%8.1fx", o.MeanPaperSec/n.MeanPaperSec)
			}
			class := classify(o.MeanPaperSec) + " -> " + classify(n.MeanPaperSec)
			if o.MeanPaperSec > plannerCutoffPaperSec && n.MeanPaperSec <= plannerCutoffPaperSec {
				class += "  <-- crossed"
				crossed++
			}
			fmt.Fprintf(out, "%-36s %12.2f %12.2f %9s %18s\n",
				tpcw.PageTitle(page), o.MeanPaperSec, n.MeanPaperSec, speedup, class)
		}
		fmt.Fprintf(out, "pages crossing the %.0fs cutoff with indexes on (%s): %d\n",
			plannerCutoffPaperSec, mix, crossed)
		fmt.Fprintf(out, "throughput gain from indexing (%s): %+.1f%%\n",
			mix, sw.GainPercent(cellName(mix, "off"), cellName(mix, "on")))
	}
	fmt.Fprintln(out)
	return errors.Join(sweepErr, writeArtifacts(out, csvDir, jsonDir, sw))
}

// classify names a page's side of the quick/lengthy boundary.
func classify(meanPaperSec float64) string {
	if meanPaperSec > plannerCutoffPaperSec {
		return "lengthy"
	}
	return "quick"
}

// runShard runs one variant behind the consistent-hash balancer at
// every shard count, holding the replica count fixed, under the
// open-loop profile. Every cell — shards=1 included — routes through
// the balancer, so the sweep isolates the shard count: under a
// saturating Poisson arrival rate, throughput should rise monotonically
// with shards (each shard owns a customer slice plus a full worker and
// database stack of its own). The shard.route / shard.fanout /
// shard.imbalance series in each cell's artifacts show what the
// balancer actually did.
func runShard(ctx context.Context, out io.Writer, opts harness.SweepOptions,
	build func(string) harness.Config, name string, levels []int, replicas int,
	loadSet variant.Settings, csvDir, jsonDir string) error {
	set := loadSet.Clone()
	if set == nil {
		set = variant.Settings{}
	}
	if _, ok := set["rate"]; !ok {
		// Default arrival rate: enough Poisson sessions to saturate a
		// single shard, so added shards have queued work to absorb.
		set["rate"] = "8"
	}
	base := build(name).With(sizeDBConns)
	scenarios := harness.ShardMatrix(base, levels, []int{replicas},
		[]harness.LoadSpec{{Profile: load.OpenLoop, Set: set}})
	fmt.Fprintf(out, "cluster: %s x %d shard levels at %d replica(s) under %s arrivals...\n",
		name, len(levels), replicas, load.OpenLoop)
	sw, sweepErr := harness.SweepWith(ctx, opts, scenarios)

	cellName := func(m int) string {
		return fmt.Sprintf("shards=%d/replicas=%d/%s", m, replicas, load.OpenLoop)
	}
	fmt.Fprintf(out, "\nshard scale-out (interactions per measurement window)\n")
	fmt.Fprintf(out, "%7s %13s %8s %10s %10s %10s\n",
		"shards", "interactions", "errors", "routed", "fanned-out", "imbalance")
	fmt.Fprintln(out, strings.Repeat("-", 64))
	for _, m := range levels {
		res := sw.Result(cellName(m))
		if res == nil {
			fmt.Fprintf(out, "%7d (failed)\n", m)
			continue
		}
		fmt.Fprintf(out, "%7d %13d %8d %10.0f %10.0f %10.2f\n",
			m, res.TotalInteractions, res.Errors,
			harness.SeriesMax(res.Series[cluster.ProbeShardRoute]),
			harness.SeriesMax(res.Series[cluster.ProbeShardFanout]),
			harness.SeriesMax(res.Series[cluster.ProbeShardImbalance]))
	}
	if len(levels) >= 2 {
		lo, hi := levels[0], levels[len(levels)-1]
		fmt.Fprintf(out, "throughput gain at %d vs %d shards: %+.1f%%\n",
			hi, lo, sw.GainPercent(cellName(lo), cellName(hi)))
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, sw.Report())
	return errors.Join(sweepErr, writeArtifacts(out, csvDir, jsonDir, sw))
}

// faultModes are the dependability cells swept by -exp faults, each
// the cell's faults setting: a fault-free control, a replica kill
// inside the database tier, and a whole-shard outage at the balancer.
// Each runs under both replica
// apply modes — synchronous fan-out feels an ejected replica directly,
// asynchronous shipping hides it behind the log.
var faultModes = []string{"none", faults.ReplicaKill, faults.ShardDown}

// runFaults runs one variant on the full sharded, replicated stack
// through the dependability pack: {no-fault, replica-kill, shard-down}
// × {sync, async}. Faults strike one paper minute into the measurement
// window and heal a minute later; the report shows what the failover
// machinery did (injections, replica ejections and resyncs, balancer
// retries and breaker opens) and how long SLO attainment took to come
// back.
func runFaults(ctx context.Context, out io.Writer, opts harness.SweepOptions,
	build func(string) harness.Config, name string,
	csvDir, jsonDir string) error {
	repls := []string{"sync", "async"}
	cellName := func(mode, repl string) string { return mode + "/" + repl }
	var scenarios []harness.Scenario
	for _, mode := range faultModes {
		for _, repl := range repls {
			mode, repl := mode, repl
			cfg := build(name).With(func(c *harness.Config) {
				c.Set["shards"] = "2"
				c.Set["replicas"] = "2"
				c.Set["repl"] = repl
				sizeDBConns(c)
				c.Set["faults"] = mode
				if mode != "none" {
					c.Set["faultset"] = "at=60s,restart=60s"
				}
			})
			scenarios = append(scenarios, harness.Scenario{
				Name:   cellName(mode, repl),
				Config: cfg,
			})
		}
	}
	fmt.Fprintf(out, "dependability: %s x %d fault modes x {sync, async} at 2 shards, 2 replicas...\n",
		name, len(faultModes))
	sw, sweepErr := harness.SweepWith(ctx, opts, scenarios)

	fmt.Fprintf(out, "\nfault injection (failover machinery and recovery per cell)\n")
	fmt.Fprintf(out, "%-24s %13s %8s %9s %8s %8s %8s %8s %9s\n",
		"cell", "interactions", "errors", "injected", "ejected", "resyncs", "retries", "breaker", "recovery")
	fmt.Fprintln(out, strings.Repeat("-", 104))
	for _, mode := range faultModes {
		for _, repl := range repls {
			res := sw.Result(cellName(mode, repl))
			if res == nil {
				fmt.Fprintf(out, "%-24s (failed)\n", cellName(mode, repl))
				continue
			}
			rec := "-"
			if res.FaultPlan != "" {
				switch {
				case res.FaultPaperSec < 0:
					rec = "no-inj"
				case res.RecoveryPaperSec < 0:
					rec = "never"
				default:
					rec = fmt.Sprintf("%.0fs", res.RecoveryPaperSec)
				}
			}
			fmt.Fprintf(out, "%-24s %13d %8d %9.0f %8.0f %8.0f %8.0f %8.0f %9s\n",
				cellName(mode, repl), res.TotalInteractions, res.Errors,
				harness.SeriesMax(res.Series[faults.ProbeInjected]),
				harness.SeriesMax(res.Series[variant.ProbeDBEjected]),
				harness.SeriesMax(res.Series[variant.ProbeDBResync]),
				harness.SeriesMax(res.Series[cluster.ProbeLBRetry]),
				harness.SeriesMax(res.Series[cluster.ProbeLBBreaker]),
				rec)
		}
	}
	for _, repl := range repls {
		fmt.Fprintf(out, "replica-kill throughput cost (%s): %+.1f%%\n", repl,
			sw.GainPercent(cellName("none", repl), cellName("replica-kill", repl)))
		fmt.Fprintf(out, "shard-down throughput cost (%s): %+.1f%%\n", repl,
			sw.GainPercent(cellName("none", repl), cellName("shard-down", repl)))
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, sw.Report())
	return errors.Join(sweepErr, writeArtifacts(out, csvDir, jsonDir, sw))
}

// runEBSweep runs every variant at every EB level and prints the
// saturation-knee table, with throughput gain of the second variant over
// the first at each level.
func runEBSweep(ctx context.Context, out io.Writer, opts harness.SweepOptions,
	build func(string) harness.Config, names []string, levels []int, csvDir, jsonDir string) error {
	var scenarios []harness.Scenario
	for _, name := range names {
		for _, level := range levels {
			cfg := build(name).With(func(c *harness.Config) { c.EBs = level })
			scenarios = append(scenarios, harness.Scenario{
				Name:   fmt.Sprintf("%s/ebs=%d", name, level),
				Config: cfg,
			})
		}
	}
	fmt.Fprintf(out, "EB ramp: %d variant(s) x %d load levels...\n", len(names), len(levels))
	// Keep partial results on a failed cell; the table prints "-" for it
	// and the error surfaces after the artifacts are written.
	sw, sweepErr := harness.SweepWith(ctx, opts, scenarios)

	fmt.Fprintf(out, "\nEB ramp (interactions per measurement window; the knee is where gains flatten)\n")
	fmt.Fprintf(out, "%6s", "ebs")
	for _, name := range names {
		fmt.Fprintf(out, " %18s", name)
	}
	if len(names) >= 2 {
		fmt.Fprintf(out, " %8s", "gain")
	}
	fmt.Fprintln(out)
	for _, level := range levels {
		fmt.Fprintf(out, "%6d", level)
		for _, name := range names {
			res := sw.Result(fmt.Sprintf("%s/ebs=%d", name, level))
			if res == nil {
				fmt.Fprintf(out, " %18s", "-")
				continue
			}
			fmt.Fprintf(out, " %18d", res.TotalInteractions)
		}
		if len(names) >= 2 {
			fmt.Fprintf(out, " %+7.1f%%", sw.GainPercent(
				fmt.Sprintf("%s/ebs=%d", names[0], level),
				fmt.Sprintf("%s/ebs=%d", names[1], level)))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out)
	return errors.Join(sweepErr, writeArtifacts(out, csvDir, jsonDir, sw))
}

// writeArtifacts emits per-scenario JSON results and per-series CSVs,
// named after scenario and series — no per-variant file lists.
func writeArtifacts(out io.Writer, csvDir, jsonDir string, sw *harness.SweepResult) error {
	for _, r := range sw.Runs {
		if r.Result == nil {
			continue
		}
		base := sanitize(r.Scenario.Name)
		if jsonDir != "" {
			if err := os.MkdirAll(jsonDir, 0o755); err != nil {
				return err
			}
			if err := writeFile(filepath.Join(jsonDir, base+".json"), func(f *os.File) error {
				return harness.WriteJSON(f, r.Result)
			}); err != nil {
				return err
			}
		}
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			seriesNames := make([]string, 0, len(r.Result.Series))
			for name := range r.Result.Series {
				seriesNames = append(seriesNames, name)
			}
			sort.Strings(seriesNames)
			for _, name := range seriesNames {
				s := r.Result.Series[name]
				if err := writeFile(filepath.Join(csvDir, base+"_"+sanitize(name)+".csv"), func(f *os.File) error {
					return harness.WriteCSV(f, s)
				}); err != nil {
					return err
				}
			}
		}
	}
	if jsonDir != "" {
		fmt.Fprintln(out, "result JSON written to", jsonDir)
	}
	if csvDir != "" {
		fmt.Fprintln(out, "series CSVs written to", csvDir)
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitize maps scenario and series names onto filesystem-safe tokens.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad level %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no levels")
	}
	return out, nil
}

// table2 replays the paper's Table 2 t_spare trace through the
// controller.
func table2() string {
	rc := sched.NewReserveController(20)
	tspare := []int{35, 24, 17, 21, 30, 36, 38, 37, 35, 39}
	treserve := make([]int, 0, len(tspare)+1)
	for _, s := range tspare {
		treserve = append(treserve, rc.Reserve())
		rc.Update(s)
	}
	treserve = append(treserve, rc.Reserve())
	return harness.Table2(tspare, treserve)
}
