// Command bench produces the repo's benchmark artifact: a JSON file
// summarizing server throughput, worst client WIRT, allocations per
// interaction, and the raw storage-engine numbers, for each engine mode
// (lock/sync, mvcc/sync, mvcc/async) with the extra TPC-W secondary
// indexes off and on, and for the clustered topology at each shard
// count. CI runs it on every PR and uploads the file, so the numbers
// travel with the change that produced them.
//
// Usage:
//
//	bench -o BENCH_PR10.json           # full artifact
//	bench -quick -o BENCH_PR10.json    # reduced run (seconds)
//	bench -quick -o BENCH_NEW.json -compare BENCH_PR10.json
//
// With -compare, after writing the artifact the run is checked against
// the baseline artifact: if any row's throughput (interactions per wall
// millisecond) fell more than -tolerance (default 15%) below the
// baseline, bench exits nonzero. Rows match on engine mode, replica
// count, shard count, AND the indexes flag. CI runs this against the
// committed BENCH_PR10.json so a throughput regression fails the PR
// instead of hiding in an uploaded artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/harness"
	"stagedweb/internal/load"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
)

// EngineResult is one engine mode's miniature-experiment summary.
type EngineResult struct {
	Engine   string `json:"engine"`
	Replicas int    `json:"replicas"`
	// Shards is the cluster shard count; 0 means the run was not
	// clustered (no balancer in front of the server).
	Shards int `json:"shards,omitempty"`
	// Indexes is whether the extra TPC-W secondary indexes were built
	// (the indexes=on setting); false is the paper's primary-key-only
	// schema.
	Indexes           bool    `json:"indexes,omitempty"`
	Interactions      int64   `json:"interactions"`
	Errors            int64   `json:"errors"`
	WorstWIRTSec      float64 `json:"worst_wirt_sec"`
	AllocsPerReq      float64 `json:"allocs_per_req"`
	Conflicts         float64 `json:"db_conflicts"`
	SnapshotReads     float64 `json:"db_snapshots"`
	MaxReplLag        float64 `json:"db_repllag_max"`
	WallDurationMilli int64   `json:"wall_duration_ms"`
}

// MicroResult is one raw storage-engine micro-benchmark.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Artifact is the file CI persists as BENCH_PR10.json.
type Artifact struct {
	GoVersion string         `json:"go_version"`
	Engines   []EngineResult `json:"engines"`
	Micro     []MicroResult  `json:"micro"`
}

func main() {
	var (
		out       = flag.String("o", "BENCH_PR10.json", "output artifact path")
		quick     = flag.Bool("quick", false, "reduced run (seconds instead of minutes)")
		replicas  = flag.Int("replicas", 4, "database backends in the experiment runs")
		scale     = flag.Float64("scale", 200, "timescale: paper seconds per wall second")
		compare   = flag.String("compare", "", "baseline artifact to compare against; exit nonzero on throughput regression")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional throughput drop vs -compare baseline")
	)
	flag.Parse()
	art := Artifact{GoVersion: runtime.Version()}

	engines := []struct {
		name string
		mvcc bool
		repl string
	}{
		{"lock/sync", false, "sync"},
		{"mvcc/sync", true, "sync"},
		{"mvcc/async", true, "async"},
	}
	// Each engine mode runs twice: once on the paper's primary-key-only
	// schema and once with the extra secondary indexes, so the artifact
	// carries the planner's payoff per engine next to the engine deltas.
	for _, eng := range engines {
		for _, indexes := range []bool{false, true} {
			fmt.Fprintf(os.Stderr, "engine %s (replicas=%d, indexes=%v)...\n", eng.name, *replicas, indexes)
			res, allocs, err := runEngine(eng.mvcc, eng.repl, *replicas, 0, indexes, *quick, *scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			art.Engines = append(art.Engines, engineRow(eng.name, *replicas, 0, indexes, res, allocs))
		}
	}

	// Cluster rows: the default engine behind the consistent-hash
	// balancer at each shard count, replicas held at 1 so the rows
	// isolate the shard axis. shards=1 still routes through the
	// balancer, so its delta vs the unclustered rows above is the
	// balancer's own overhead.
	for _, m := range []int{1, 2, 4} {
		fmt.Fprintf(os.Stderr, "cluster mvcc/sync (shards=%d)...\n", m)
		res, allocs, err := runEngine(true, "sync", 1, m, false, *quick, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		art.Engines = append(art.Engines, engineRow("mvcc/sync", 1, m, false, res, allocs))
	}

	fmt.Fprintln(os.Stderr, "storage-engine micro-benchmarks...")
	art.Micro = microBenches()

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(art)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)

	if *compare != "" {
		regressed, err := compareAgainst(*compare, art, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if regressed {
			fmt.Fprintln(os.Stderr, "bench: throughput regression vs", *compare)
			os.Exit(1)
		}
	}
}

// engineRow summarizes one finished run as an artifact row.
func engineRow(name string, replicas, shards int, indexes bool, res *harness.Result, allocs float64) EngineResult {
	return EngineResult{
		Engine:            name,
		Replicas:          replicas,
		Shards:            shards,
		Indexes:           indexes,
		Interactions:      res.TotalInteractions,
		Errors:            res.Errors,
		WorstWIRTSec:      harness.SeriesMax(res.Series[load.ProbeWIRT]),
		AllocsPerReq:      allocs,
		Conflicts:         harness.SeriesMax(res.Series[variant.ProbeDBConflicts]),
		SnapshotReads:     harness.SeriesMax(res.Series[variant.ProbeDBSnapshots]),
		MaxReplLag:        harness.SeriesMax(res.Series[variant.ProbeDBReplLag]),
		WallDurationMilli: res.WallDuration.Milliseconds(),
	}
}

// runEngine runs one miniature browsing-mix experiment on the staged
// server under the given engine mode and reports the result plus heap
// allocations per completed interaction (whole-process mallocs over the
// run — an upper bound that tracks the per-request figure). shards > 0
// puts the consistent-hash balancer in front of that many shard-owning
// instances; 0 runs the server unclustered. indexes builds the extra
// TPC-W secondary indexes before the measurement window.
func runEngine(mvcc bool, repl string, replicas, shards int, indexes, quick bool, scale float64) (*harness.Result, float64, error) {
	cfg := harness.QuickConfig(variant.Modified, clock.Timescale(scale))
	cfg.EBs = 60
	cfg.RampUp = 15 * time.Second
	cfg.Measure = 2 * time.Minute
	cfg.CoolDown = 5 * time.Second
	cfg.Populate = tpcw.PopulateConfig{Items: 800, Customers: 200, Orders: 180}
	if quick {
		cfg.Measure = 45 * time.Second
	}
	cfg.Set["replicas"] = strconv.Itoa(replicas)
	cfg.Set["dbconns"] = "4"
	cfg.Set["mvcc"] = strconv.FormatBool(mvcc)
	cfg.Set["repl"] = repl
	cfg.Set["indexes"] = strconv.FormatBool(indexes)
	if shards > 0 {
		cfg.Set["shards"] = strconv.Itoa(shards)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := harness.Run(cfg)
	if err != nil {
		return nil, 0, err
	}
	runtime.ReadMemStats(&after)
	allocs := 0.0
	if res.TotalInteractions > 0 {
		allocs = float64(after.Mallocs-before.Mallocs) / float64(res.TotalInteractions)
	}
	return res, allocs, nil
}

// microBenches runs the raw engine paths through testing.Benchmark: a
// hot-row point read under each concurrency mode with writers active,
// and the tier write path under each replication mode.
func microBenches() []MicroResult {
	var out []MicroResult
	for _, mode := range []struct {
		name string
		mvcc bool
	}{{"read-hot-write-hot/lock", false}, {"read-hot-write-hot/mvcc", true}} {
		r := testing.Benchmark(func(b *testing.B) { benchReadHot(b, mode.mvcc) })
		out = append(out, MicroResult{
			Name:        mode.name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	for _, mode := range []struct {
		name  string
		async bool
	}{{"tier-write/sync", false}, {"tier-write/async", true}} {
		r := testing.Benchmark(func(b *testing.B) { benchTierWrite(b, mode.async, 4) })
		out = append(out, MicroResult{
			Name:        mode.name + "/replicas=4",
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	for _, mode := range []struct {
		name    string
		indexed bool
	}{{"secondary-eq/scan", false}, {"secondary-eq/index", true}} {
		r := testing.Benchmark(func(b *testing.B) { benchSecondaryEq(b, mode.indexed) })
		out = append(out, MicroResult{
			Name:        mode.name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}

// benchSecondaryEq measures a point SELECT on a non-key column with and
// without a secondary hash index — the raw planner payoff, with the
// cost model zeroed so the figure is engine work, not injected latency.
func benchSecondaryEq(b *testing.B, indexed bool) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.MustCreateTable(sqldb.Schema{
		Table: "t",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.Int},
			{Name: "grp", Type: sqldb.Int},
			{Name: "val", Type: sqldb.Int},
		},
		PrimaryKey: "id",
	})
	seed := db.Connect()
	for i := 1; i <= 4096; i++ {
		if _, err := seed.Exec("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)", i, i%64, i); err != nil {
			b.Fatal(err)
		}
	}
	seed.Close()
	if indexed {
		if err := db.CreateIndex("t", "grp", false); err != nil {
			b.Fatal(err)
		}
	}
	c := db.Connect()
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("SELECT val FROM t WHERE grp = ?", i%64); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReadHot(b *testing.B, mvcc bool) {
	db := sqldb.Open(sqldb.Options{
		Cost: &sqldb.CostModel{PerStatement: 200 * time.Microsecond},
	})
	db.SetMVCC(mvcc)
	db.MustCreateTable(sqldb.Schema{
		Table:      "hot",
		Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.Int}},
		PrimaryKey: "id",
	})
	seed := db.Connect()
	for i := 1; i <= 16; i++ {
		if _, err := seed.Exec("INSERT INTO hot (id, v) VALUES (?, 0)", i); err != nil {
			b.Fatal(err)
		}
	}
	seed.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := db.Connect()
		defer c.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Exec("UPDATE hot SET v = ? WHERE id = ?", i, i%16+1); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	c := db.Connect()
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("SELECT v FROM hot WHERE id = ?", i%16+1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

func benchTierWrite(b *testing.B, async bool, replicas int) {
	db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
	db.SetMVCC(true)
	db.MustCreateTable(sqldb.Schema{
		Table:      "kv",
		Columns:    []sqldb.Column{{Name: "id", Type: sqldb.Int}, {Name: "v", Type: sqldb.String}},
		PrimaryKey: "id",
	})
	tier := dbtier.New(db, dbtier.Options{Replicas: replicas, Conns: 2, Async: async})
	defer tier.Close()
	c := tier.Conn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("INSERT INTO kv (id, v) VALUES (?, 'x')", i+1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tier.Sync()
}
