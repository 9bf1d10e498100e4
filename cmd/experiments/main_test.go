package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stagedweb/internal/analysis/catalog"
	"stagedweb/internal/cluster"
	"stagedweb/internal/faults"
	"stagedweb/internal/harness"
	"stagedweb/internal/load"
	"stagedweb/internal/variant"
)

// TestExperimentsSmoke drives the public experiment API end to end:
// a quick table3 run over both default variants, with CSV and JSON
// artifact writing.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector overhead swamps the paper-time calibration; " +
			"run without -race for the experiment smoke")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	args := []string{
		"-quick", "-exp", "table3", "-scale", "400",
		"-ebs", "40", "-measure", "90s",
		"-csv", dir, "-json", dir,
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	out := buf.String()

	// Table output.
	for _, want := range []string{"Table 3", "TPC-W home", "speedup", "sweep report"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}

	// JSON artifacts: one per scenario, valid, with named series.
	for _, name := range []string{"unmodified", "modified"} {
		raw, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatalf("JSON artifact missing: %v", err)
		}
		var res struct {
			Variant string                     `json:"variant"`
			Series  map[string]json.RawMessage `json:"series"`
			Total   int64                      `json:"total_interactions"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("%s.json invalid: %v", name, err)
		}
		if res.Variant != name {
			t.Errorf("%s.json variant = %q", name, res.Variant)
		}
		if _, ok := res.Series[harness.SeriesThroughputAll]; !ok {
			t.Errorf("%s.json misses %s series", name, harness.SeriesThroughputAll)
		}
		// The steady load driver's client probes land next to the
		// server's series in every artifact.
		for _, probe := range []string{load.ProbeActive, load.ProbeOffered, load.ProbeErrors, load.ProbeWIRT} {
			if _, ok := res.Series[probe]; !ok {
				t.Errorf("%s.json misses %s series", name, probe)
			}
		}
		if res.Total == 0 {
			t.Errorf("%s.json reports zero interactions", name)
		}
	}

	// CSV artifacts: per scenario × series, with the CSV header.
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no CSV artifacts written (err=%v)", err)
	}
	qcsv := filepath.Join(dir, "unmodified_queue.single.csv")
	raw, err := os.ReadFile(qcsv)
	if err != nil {
		t.Fatalf("queue CSV missing: %v (have %v)", err, csvs)
	}
	if !strings.HasPrefix(string(raw), "offset_seconds,value\n") {
		t.Errorf("CSV header wrong: %q", string(raw)[:40])
	}
}

// TestExperimentsEBSweep exercises the saturation-ramp mode: a matrix of
// variants × EB levels from one CLI invocation, with per-scenario JSON.
func TestExperimentsEBSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector overhead swamps the paper-time calibration")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	args := []string{
		"-quick", "-scale", "400", "-measure", "45s",
		"-ebs-sweep", "10,20", "-json", dir,
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"EB ramp", "ebs", "gain", "unmodified", "modified"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	for _, name := range []string{
		"unmodified_ebs_10", "unmodified_ebs_20", "modified_ebs_10", "modified_ebs_20",
	} {
		if _, err := os.Stat(filepath.Join(dir, name+".json")); err != nil {
			t.Errorf("sweep artifact missing: %v", err)
		}
	}
}

// modeCase is one row of TestExperimentModes: a standalone -exp mode
// run, and what one glob of its JSON artifacts must carry.
type modeCase struct {
	name string
	// args select the mode; every run adds -quick -scale 400 -json dir.
	args []string
	// output lists strings the report must print.
	output []string
	// glob selects artifacts in the JSON dir; want is how many it must
	// match.
	glob string
	want int
	// series must be present in every matched artifact; peaked series
	// must also rise above zero somewhere in the measurement window.
	series []string
	peaked []string
	// axis, when set, is the sweep-axis settings key: each artifact's
	// config.set value for it must be the level its file name carries
	// ("..._replicas_2.json" ran with set.replicas=2).
	axis string
}

// modeCases lists every standalone -exp mode. Rows sharing args share
// one run.
var modeCases = []modeCase{
	{
		name: "spike",
		args: []string{"-exp", "spike", "-ebs", "20", "-measure", "90s",
			"-load-set", "burst=40", "-load-set", "at=45s", "-load-set", "width=30s"},
		output: []string{"spike comparison", "peak-ebs", "worst-wirt", "gain"},
		glob:   "*_spike.json",
		want:   2,
		series: []string{load.ProbeActive, load.ProbeOffered, load.ProbeErrors, load.ProbeWIRT},
	},
	{
		// -set replicas=3 must not override the sweep axis.
		name: "scaleout",
		args: []string{"-exp", "scaleout", "-ebs", "30", "-measure", "60s",
			"-variants", "modified", "-replicas", "1,2", "-set", "replicas=3"},
		output: []string{"replica scale-out", "modified/browsing", "modified/ordering", "gain at 2 vs 1 replicas"},
		glob:   "modified_*_replicas_*.json",
		want:   4,
		series: []string{variant.ProbeDBInUse, variant.ProbeDBWait, variant.ProbeDBQueries},
		axis:   "replicas",
	},
	{
		name: "mvcc",
		args: []string{"-exp", "mvcc", "-ebs", "30", "-measure", "60s",
			"-variants", "modified", "-replicas", "1,2"},
		output: []string{"storage-engine sweep", "lock/sync/browsing", "mvcc/async/ordering",
			"engine behavior", "mvcc/sync gain over lock/sync at 2 replicas"},
		glob: "modified_*_replicas_*.json",
		want: 12,
		series: []string{variant.ProbeDBConflicts, variant.ProbeDBSnapshots, variant.ProbeDBReplLag,
			variant.ProbeDBStmtHits, variant.ProbeDBStmtMiss},
		axis: "replicas",
	},
	{
		name: "planner",
		args: []string{"-exp", "planner", "-ebs", "30", "-measure", "60s", "-variants", "modified"},
		output: []string{"query planner", "planner behavior", "browsing/indexes=off", "ordering/indexes=on",
			"quick/lengthy boundary under indexing", "pages crossing the 2s cutoff"},
		glob:   "modified_*_indexes_*.json",
		want:   4,
		series: []string{variant.ProbeDBPlanScan, variant.ProbeDBPlanIndex, variant.ProbeDBPlanRows},
		axis:   "indexes",
	},
	{
		name:   "planner-indexes-on",
		args:   []string{"-exp", "planner", "-ebs", "30", "-measure", "60s", "-variants", "modified"},
		glob:   "modified_*_indexes_on.json",
		want:   2,
		peaked: []string{variant.ProbeDBPlanIndex},
	},
	{
		// Every cell, shards=1 included, runs behind the balancer.
		name:   "shard",
		args:   []string{"-exp", "shard", "-shards", "1,2", "-replicas", "1", "-measure", "60s"},
		output: []string{"shard scale-out", "throughput gain at 2 vs 1 shards", "sweep report"},
		glob:   "shards_*_replicas_*.json",
		want:   2,
		series: []string{cluster.ProbeShardRoute, cluster.ProbeShardFanout, cluster.ProbeShardImbalance, cluster.ProbeLBWait},
	},
	{
		name: "faults-replica-kill",
		args: []string{"-exp", "faults", "-ebs", "30", "-measure", "150s"},
		output: []string{"fault injection", "replica-kill throughput cost (sync)",
			"shard-down throughput cost (async)"},
		glob:   "replica-kill_*.json",
		want:   2,
		series: []string{faults.ProbeInjected, variant.ProbeDBEjected, variant.ProbeDBResync},
		peaked: []string{faults.ProbeInjected, variant.ProbeDBEjected},
	},
	{
		// At this size the balancer may see no retries or breaker opens;
		// the series must still be sampled.
		name:   "faults-shard-down",
		args:   []string{"-exp", "faults", "-ebs", "30", "-measure", "150s"},
		glob:   "shard-down_*.json",
		want:   2,
		series: []string{faults.ProbeInjected, cluster.ProbeLBRetry, cluster.ProbeLBBreaker},
		peaked: []string{faults.ProbeInjected},
	},
}

// TestExperimentModes runs every standalone -exp mode once at a small
// size and checks its report and JSON artifacts against modeCases.
func TestExperimentModes(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector overhead swamps the paper-time calibration")
	}
	type runOut struct {
		dir, out string
		err      error
	}
	root := t.TempDir()
	runs := map[string]runOut{}
	for _, tc := range modeCases {
		t.Run(tc.name, func(t *testing.T) {
			key := strings.Join(tc.args, " ")
			r, ok := runs[key]
			if !ok {
				r.dir = filepath.Join(root, tc.name)
				var buf bytes.Buffer
				args := append([]string{"-quick", "-scale", "400", "-json", r.dir}, tc.args...)
				r.err = run(args, &buf)
				r.out = buf.String()
				runs[key] = r
			}
			if r.err != nil {
				t.Fatalf("run(%v): %v\noutput:\n%s", tc.args, r.err, r.out)
			}
			for _, want := range tc.output {
				if !strings.Contains(r.out, want) {
					t.Errorf("output misses %q:\n%s", want, r.out)
				}
			}
			files, err := filepath.Glob(filepath.Join(r.dir, tc.glob))
			if err != nil || len(files) != tc.want {
				t.Fatalf("%s matched %d artifacts, want %d (err=%v)", tc.glob, len(files), tc.want, err)
			}
			for _, f := range files {
				checkArtifact(t, f, tc)
			}
		})
	}
}

// checkArtifact asserts one JSON artifact carries the row's series,
// peaks, and sweep-axis setting.
func checkArtifact(t *testing.T, path string, tc modeCase) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Config struct {
			Set map[string]string `json:"set"`
		} `json:"config"`
		Series map[string]struct {
			Points []struct {
				Value float64 `json:"value"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("%s invalid: %v", path, err)
	}
	name := filepath.Base(path)
	for _, series := range append(tc.series, tc.peaked...) {
		if !catalog.IsProbe(series) {
			t.Errorf("%q is not a registered probe name", series)
		}
		if _, ok := res.Series[series]; !ok {
			t.Errorf("%s misses %s series", name, series)
		}
	}
	for _, series := range tc.peaked {
		peak := 0.0
		for _, p := range res.Series[series].Points {
			peak = max(peak, p.Value)
		}
		if peak <= 0 {
			t.Errorf("%s: %s never rose above zero", name, series)
		}
	}
	if tc.axis != "" {
		level := res.Config.Set[tc.axis]
		if !strings.HasSuffix(name, "_"+tc.axis+"_"+level+".json") {
			t.Errorf("%s ran with set.%s=%q, not its cell's level", name, tc.axis, level)
		}
	}
}

func TestExperimentsFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-set", "nonsense"}, &buf); err == nil {
		t.Error("malformed -set accepted")
	}
	if err := run([]string{"-ebs-sweep", "10,frog"}, &buf); err == nil {
		t.Error("malformed -ebs-sweep accepted")
	}
	if err := run([]string{"-variants", " , "}, &buf); err == nil {
		t.Error("empty -variants accepted")
	}
	if err := run([]string{"-load", "no-such-profile"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "no-such-profile") {
		t.Errorf("unknown -load accepted: %v", err)
	}
	if err := run([]string{"-load-set", "nonsense"}, &buf); err == nil {
		t.Error("malformed -load-set accepted")
	}
	// -exp spike is standalone: combining it with other experiments or a
	// -load override must fail loudly, not silently drop either.
	if err := run([]string{"-exp", "spike,table3"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "standalone") {
		t.Errorf("-exp spike,table3 accepted: %v", err)
	}
	if err := run([]string{"-exp", "spike", "-load", "wave"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "spike profile") {
		t.Errorf("-exp spike -load wave accepted: %v", err)
	}
	if err := run([]string{"-exp", "spike", "-ebs-sweep", "10,20"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "separate modes") {
		t.Errorf("-exp spike -ebs-sweep accepted: %v", err)
	}
	// -exp scaleout is standalone too, and owns the mix axis itself.
	if err := run([]string{"-exp", "scaleout,table3"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "standalone") {
		t.Errorf("-exp scaleout,table3 accepted: %v", err)
	}
	if err := run([]string{"-exp", "scaleout", "-mix", "shopping"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "mixes itself") {
		t.Errorf("-exp scaleout -mix accepted: %v", err)
	}
	// -exp planner is standalone and owns both the mix and index axes.
	if err := run([]string{"-exp", "planner,table3"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "standalone") {
		t.Errorf("-exp planner,table3 accepted: %v", err)
	}
	if err := run([]string{"-exp", "planner", "-mix", "shopping"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "mixes itself") {
		t.Errorf("-exp planner -mix accepted: %v", err)
	}
	if err := run([]string{"-exp", "scaleout", "-replicas", "1,frog"}, &buf); err == nil {
		t.Error("malformed -replicas accepted")
	}
	if err := run([]string{"-exp", "scaleout", "-ebs-sweep", "10,20"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "separate modes") {
		t.Errorf("-exp scaleout -ebs-sweep accepted: %v", err)
	}
	// -exp mvcc follows the same standalone rules.
	if err := run([]string{"-exp", "mvcc,table3"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "standalone") {
		t.Errorf("-exp mvcc,table3 accepted: %v", err)
	}
	if err := run([]string{"-exp", "mvcc", "-mix", "shopping"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "mixes itself") {
		t.Errorf("-exp mvcc -mix accepted: %v", err)
	}
	if err := run([]string{"-exp", "mvcc", "-ebs-sweep", "10,20"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "separate modes") {
		t.Errorf("-exp mvcc -ebs-sweep accepted: %v", err)
	}
	// Table 2 needs no server runs and must work for any -variants.
	buf.Reset()
	if err := run([]string{"-exp", "table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "treserve") {
		t.Errorf("table2 output wrong:\n%s", buf.String())
	}
}
