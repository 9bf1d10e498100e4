// Package harness runs the paper's experiments end to end: it boots a
// database and a registered server variant, drives a registered load
// profile of emulated browsers against it, applies the ramp-up /
// measure / cool-down discipline of Section 4.1, and collects every
// series and table the DSN'09 evaluation reports (Tables 3 and 4,
// Figures 7–10).
//
// Both axes are values, not cases: Run looks Config.Variant up in the
// internal/variant registry and Config.Load up in the internal/load
// registry, builds them, and samples every probe each exports into a
// named metrics.Series (server-side queue.*/sched.*, client-side
// client.*) — so a newly registered topology or workload shape needs
// zero harness edits. Sweeps over a scenario matrix (variants × load
// profiles × setting mutations) are first-class too; see Scenario,
// Sweep, and Matrix.
package harness

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/faults"
	"stagedweb/internal/load"
	"stagedweb/internal/metrics"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

// Series names the harness computes from completion events, alongside
// the variant's own probe series (variant.ProbeQueueSingle etc.). The
// "throughput." prefix is reserved for these.
const (
	// SeriesThroughputAll counts all completions per paper minute
	// (Figure 9).
	SeriesThroughputAll = "throughput.all"
	// SeriesThroughputStatic counts static completions (Figure 10a).
	SeriesThroughputStatic = "throughput.static"
	// SeriesThroughputDynamic counts dynamic completions (Figure 10b).
	SeriesThroughputDynamic = "throughput.dynamic"
	// SeriesThroughputQuick counts quick dynamic completions (Figure 10c).
	SeriesThroughputQuick = "throughput.quick"
	// SeriesThroughputLengthy counts lengthy dynamic completions
	// (Figure 10d).
	SeriesThroughputLengthy = "throughput.lengthy"
)

// Config describes one experimental run. All durations are paper time.
type Config struct {
	// Variant is the registered name of the server variant under test
	// (see internal/variant).
	Variant string `json:"variant"`

	Scale clock.Timescale `json:"scale"`

	// Workload: the offered load is a registered load profile (see
	// internal/load), configured like a variant.
	//
	// Load is the profile name; empty means "steady" (the paper's fixed
	// closed-loop population).
	Load string `json:"load,omitempty"`
	// LoadSet holds explicit profile settings (-load-set key=value,
	// scenario mutations); unknown keys are build errors.
	LoadSet variant.Settings `json:"load_set,omitempty"`
	// Mix names the TPC-W page mix ("browsing", "shopping",
	// "ordering"); empty means browsing, the paper's workload.
	Mix string `json:"mix,omitempty"`

	// EBs is the base population, lowered into the load profile's "ebs"
	// setting as an advisory default.
	//
	// Deprecated: express population through Load/LoadSet; EBs remains
	// as the steady-state shim and as the base level profiles scale
	// from.
	EBs      int           `json:"ebs"`
	RampUp   time.Duration `json:"ramp_up_ns"`
	Measure  time.Duration `json:"measure_ns"`
	CoolDown time.Duration `json:"cool_down_ns"`

	FetchImages bool `json:"fetch_images"`
	// ThinkExponential selects TPC-W's negative-exponential think time
	// (mean 7 s) instead of uniform 0.7–7 s.
	ThinkExponential bool  `json:"think_exponential"`
	Seed             int64 `json:"seed"`

	// Database.
	Populate tpcw.PopulateConfig `json:"populate"`
	Cost     sqldb.CostModel     `json:"cost"`
	// Work models render/static worker time (CPython-calibrated).
	Work server.WorkCost `json:"work"`

	// Defaults holds advisory variant settings: the per-topology pool
	// sizes (workers, header, static, general, lengthy, render,
	// minreserve) that one variant applies and the others ignore. It
	// becomes variant.Env.Defaults, so a key no variant understands is
	// silently ignored here — keep anything every variant consumes in
	// Set.
	Defaults variant.Settings `json:"defaults,omitempty"`

	// SLO is the paper-time WIRT threshold for the Result's
	// SLO-attainment figure; zero takes 3 s (the TPC-W web interaction
	// response-time constraint for most pages).
	SLO time.Duration `json:"slo_ns,omitempty"`

	// Set holds explicit settings layered over Defaults: -set pairs,
	// sweep axes, and every key the variant, the cluster tier (shards,
	// lb) or the fault decoder (faults, faultset) consumes. Unlike
	// Defaults, a key nothing understands is a build error.
	Set variant.Settings `json:"set,omitempty"`
}

// LoadName resolves the load profile under test: Load if set, else the
// steady shim over the deprecated EBs field.
func (c Config) LoadName() string {
	if c.Load != "" {
		return c.Load
	}
	return load.Steady
}

// With returns a copy of the config with the mutations applied. The
// settings maps are cloned (Set and LoadSet allocated if nil) first, so
// scenario mutations can write them freely without aliasing the base
// config.
func (c Config) With(muts ...func(*Config)) Config {
	c.Defaults = c.Defaults.Clone()
	c.Set = c.Set.Clone()
	if c.Set == nil {
		c.Set = variant.Settings{}
	}
	c.LoadSet = c.LoadSet.Clone()
	if c.LoadSet == nil {
		c.LoadSet = variant.Settings{}
	}
	for _, mut := range muts {
		mut(&c)
	}
	return c
}

// loadDefaults lowers the deprecated EBs field into advisory profile
// settings.
func (c Config) loadDefaults() variant.Settings {
	s := variant.Settings{}
	if c.EBs > 0 {
		s["ebs"] = fmt.Sprint(c.EBs)
	}
	return s
}

// PaperConfig returns the full-paper-scale configuration for the named
// variant: 400 EBs, a 50-minute measurement window with 5-minute ramp-up
// and cool-down, the default population, and the paper's pool sizes —
// compressed through the given timescale (100 ⇒ the hour-long experiment
// takes 36 s).
func PaperConfig(variantName string, scale clock.Timescale) Config {
	// Calibration notes (README.md, "Design notes" and "Experiments"):
	//   - scans cost ~0.2 ms/row so the three slow pages land at 2.5-4 s
	//     of intrinsic data-generation time (over the 2 s cutoff, under
	//     the paper's 11-21 s loaded response times);
	//   - render/static work costs are CPython-calibrated (a 12 KiB
	//     Django page ~ 190 ms, an image ~ 10 ms), making non-database
	//     work a ~20% share of baseline worker time - the waste the
	//     staged design reclaims;
	//   - the connection budget (48) puts the baseline just past its
	//     saturation knee at 400 browsers while total database demand
	//     stays under capacity, the regime the paper's numbers imply.
	cost := sqldb.DefaultCostModel()
	cost.PerRowScanned = 200 * time.Microsecond
	return Config{
		Variant:          variantName,
		Scale:            scale,
		EBs:              400,
		RampUp:           5 * time.Minute,
		Measure:          50 * time.Minute,
		CoolDown:         5 * time.Minute,
		FetchImages:      true,
		ThinkExponential: true,
		Seed:             1,
		Populate:         tpcw.PopulateConfig{},
		Cost:             cost,
		Work: server.WorkCost{
			RenderBase:  50 * time.Millisecond,
			RenderPerKB: 12 * time.Millisecond,
			StaticBase:  5 * time.Millisecond,
			StaticPerKB: time.Millisecond,
		},
		Defaults: variant.Settings{
			"workers": "48",
			"header":  "32", "static": "32", "general": "40", "lengthy": "10", "render": "32",
			"minreserve": "10",
		},
		Set: variant.Settings{},
	}
}

// QuickConfig returns a reduced configuration for tests and benchmarks:
// a smaller population with a proportionally heavier scan cost (so the
// slow-page class stays seconds-scale), fewer browsers, and a short
// window. One run takes a few seconds of wall time at scale 200.
func QuickConfig(variantName string, scale clock.Timescale) Config {
	cost := sqldb.DefaultCostModel()
	cost.PerRowScanned = 1500 * time.Microsecond // 2000 rows -> ~3 s scans
	return Config{
		Variant:     variantName,
		Scale:       scale,
		EBs:         100,
		RampUp:      30 * time.Second,
		Measure:     5 * time.Minute,
		CoolDown:    15 * time.Second,
		FetchImages: true,
		Seed:        1,
		Populate:    tpcw.PopulateConfig{Items: 2000, Customers: 600, Orders: 520},
		Cost:        cost,
		Work:        server.DefaultWorkCost(),
		Defaults: variant.Settings{
			"workers": "26",
			"header":  "16", "static": "16", "general": "21", "lengthy": "5", "render": "16",
			"minreserve": "5",
		},
		Set: variant.Settings{},
	}
}

// PageStat is the per-page server+client view for Tables 3 and 4.
type PageStat struct {
	Page string `json:"page"`
	// Count is completed interactions during the measurement window
	// (Table 4).
	Count int64 `json:"count"`
	// Errors is failed client interactions attributed to this page
	// (image failures charge the parent page).
	Errors int64 `json:"errors"`
	// MeanPaperSec is the mean client-side WIRT in paper seconds
	// (Table 3).
	MeanPaperSec float64 `json:"mean_paper_sec"`
}

// Result is everything one run produces. WriteJSON serializes it in
// full (config, tables, series) for artifacts.
type Result struct {
	// Variant is the registered name of the variant that ran.
	Variant string `json:"variant"`
	Config  Config `json:"config"`

	// Per-page statistics (Tables 3 and 4), keyed by page path.
	Pages map[string]PageStat `json:"pages"`
	// TotalInteractions sums page interactions in the window.
	TotalInteractions int64 `json:"total_interactions"`
	// Errors is the count of failed client interactions.
	Errors int64 `json:"errors"`

	// Tail latency over the whole interaction stream, in paper seconds:
	// the p99 and p999 client-side WIRT of the measurement window.
	P99PaperSec  float64 `json:"p99_paper_sec"`
	P999PaperSec float64 `json:"p999_paper_sec"`
	// SLOPaperSec is the response-time threshold the run was held to
	// (Config.SLO, default 3 s) and SLOAttained the fraction of
	// interactions answered within it.
	SLOPaperSec float64 `json:"slo_paper_sec"`
	SLOAttained float64 `json:"slo_attained"`

	// Fault injection and recovery (zero values when the run was
	// fault-free). FaultPlan is the injected plan's name; FaultEvents
	// the injections it executed; FaultPaperSec the paper-time offset of
	// the first injection from the start of the measurement window (-1
	// if the plan never fired). RecoveryPaperSec is the MTTR-style
	// recovery time: paper seconds from the first injection until
	// windowed SLO attainment climbs back to recoveryFraction of its
	// pre-fault level (-1 = never recovered inside the window).
	FaultPlan        string         `json:"fault_plan,omitempty"`
	FaultEvents      []faults.Event `json:"fault_events,omitempty"`
	FaultPaperSec    float64        `json:"fault_paper_sec,omitempty"`
	RecoveryPaperSec float64        `json:"recovery_paper_sec,omitempty"`

	// Series holds every time series of the run, keyed by name: the
	// harness's throughput series ("throughput.*", one bucket per paper
	// minute) and one series per variant or load-driver probe
	// ("queue.*", "sched.*", "client.*", ..., sampled once per paper
	// second).
	Series map[string]*metrics.Series `json:"series"`

	// WallDuration is how long the run took on the host.
	WallDuration time.Duration `json:"wall_duration_ns"`
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	name := cfg.Variant
	if name == "" {
		return nil, fmt.Errorf("harness: config names no variant")
	}
	v, ok := variant.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown variant %q (registered: %s)",
			name, strings.Join(variant.Names(), ", "))
	}
	loadName := cfg.LoadName()
	prof, ok := load.Lookup(loadName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown load profile %q (registered: %s)",
			loadName, strings.Join(load.Names(), ", "))
	}
	mix, err := tpcw.MixByName(cfg.Mix)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("harness: timescale must be positive")
	}
	wallStart := time.Now()

	// The fault plan splits off first: the "faults"/"faultset" settings
	// are experiment inputs, not server configuration, and must never
	// reach the cluster or variant decoders.
	faultPlan, faultSet, runSet, err := faults.DecodeSettings(cfg.Set, cfg.Defaults)
	if err != nil {
		return nil, err
	}

	// The cluster tier is pure configuration: the "shards"/"lb" settings
	// split off here; everything else goes to the shard variant builders
	// untouched. clustered is true whenever a shards setting is present
	// (even shards=1), so a sharded sweep's baseline cell pays the same
	// balancer hop as its scaled cells.
	clusterOpts, shardSet, clustered, err := cluster.DecodeSettings(runSet, cfg.Defaults)
	if err != nil {
		return nil, err
	}
	nShards := 1
	var ring *cluster.Ring
	if clustered {
		nShards = clusterOpts.Shards
		ring, err = cluster.NewRing(nShards, clusterOpts.VNodes)
		if err != nil {
			return nil, err
		}
	}

	// One database per shard: the customer/order slice the ring assigns
	// it plus the full replicated catalog. The same ring later routes
	// requests, so a customer's rows and requests meet on one shard by
	// construction. All shards populate before the measurement window is
	// anchored — loading M databases takes wall time.
	dbs := make([]*sqldb.DB, nShards)
	var counts tpcw.Counts
	for s := 0; s < nShards; s++ {
		db := sqldb.Open(sqldb.Options{
			Clock:     clock.Precise{},
			Timescale: cfg.Scale,
			Cost:      &cfg.Cost,
		})
		if err := tpcw.CreateTables(db); err != nil {
			return nil, err
		}
		var owns func(int) bool
		if clustered {
			s := s
			owns = func(cID int) bool { return ring.Owner(tpcw.CustomerKey(cID)) == s }
		}
		counts, err = tpcw.PopulateShard(db, cfg.Populate, owns)
		if err != nil {
			return nil, err
		}
		// The indexes=on axis builds its extra indexes on each shard's
		// primary before any variant is constructed, so replicas cloned
		// from it inherit them (CloneSnapshot copies index structures).
		if variant.IndexesEnabled(cfg.Set, cfg.Defaults) {
			if err := tpcw.CreateExtraIndexes(db); err != nil {
				return nil, err
			}
		}
		dbs[s] = db
	}
	app := tpcw.NewApp(counts, nil)

	// The measurement window starts after ramp-up; series anchored there
	// silently drop ramp-up observations.
	measureStart := time.Now().Add(cfg.Scale.Wall(cfg.RampUp))
	minute := cfg.Scale.Wall(time.Minute)
	second := cfg.Scale.Wall(time.Second)

	thrAll := metrics.NewSeries(measureStart, minute, metrics.AggSum)
	thrStatic := metrics.NewSeries(measureStart, minute, metrics.AggSum)
	thrDynamic := metrics.NewSeries(measureStart, minute, metrics.AggSum)
	thrQuick := metrics.NewSeries(measureStart, minute, metrics.AggSum)
	thrLengthy := metrics.NewSeries(measureStart, minute, metrics.AggSum)
	res := &Result{
		Variant: name,
		Config:  cfg,
		Pages:   make(map[string]PageStat, len(tpcw.Pages)),
		Series: map[string]*metrics.Series{
			SeriesThroughputAll:     thrAll,
			SeriesThroughputStatic:  thrStatic,
			SeriesThroughputDynamic: thrDynamic,
			SeriesThroughputQuick:   thrQuick,
			SeriesThroughputLengthy: thrLengthy,
		},
	}

	// Server-side per-page completion counts, gated to the window.
	var (
		countMu    sync.Mutex
		pageCounts = make(map[string]int64, len(tpcw.Pages))
	)
	measureEnd := measureStart.Add(cfg.Scale.Wall(cfg.Measure))
	onComplete := func(ev server.CompletionEvent) {
		thrAll.Observe(ev.Done, 1)
		if ev.Class == server.ClassStatic {
			thrStatic.Observe(ev.Done, 1)
			return
		}
		thrDynamic.Observe(ev.Done, 1)
		// Classify by the paper's fixed slow-page set so every variant
		// buckets identically in Figure 10.
		if tpcw.SlowPages[ev.Page] {
			thrLengthy.Observe(ev.Done, 1)
		} else {
			thrQuick.Observe(ev.Done, 1)
		}
		if ev.Done.Before(measureStart) || ev.Done.After(measureEnd) {
			return
		}
		countMu.Lock()
		pageCounts[ev.Page]++
		countMu.Unlock()
	}

	// Boot the variant under test: either one instance over the single
	// database, or nShards instances behind the cluster balancer (which
	// is itself a variant.Instance, so everything downstream — serving,
	// probe sampling, shutdown — is identical).
	l, addr, err := webtest.Listen()
	if err != nil {
		return nil, err
	}
	buildShard := func(db *sqldb.DB, set variant.Settings) (variant.Instance, error) {
		return v.Build(variant.Env{
			App:        app,
			DB:         db,
			Clock:      clock.Precise{},
			Scale:      cfg.Scale,
			Cost:       cfg.Work,
			OnComplete: onComplete,
			Set:        set,
			Defaults:   cfg.Defaults,
		})
	}
	var inst variant.Instance
	var targets faults.Targets
	if clustered {
		clusterOpts.Clock = clock.Precise{}
		clusterOpts.Scale = cfg.Scale
		insts := make([]variant.Instance, nShards)
		for s := 0; s < nShards; s++ {
			insts[s], err = buildShard(dbs[s], shardSet)
			if err != nil {
				for _, built := range insts[:s] {
					built.Stop()
				}
				_ = l.Close()
				return nil, err
			}
		}
		bal, err := cluster.New(clusterOpts, insts, func(path string, q map[string]string) cluster.Decision {
			key, fanout := tpcw.ShardKey(path, q)
			return cluster.Decision{Key: key, Fanout: fanout}
		})
		if err != nil {
			for _, built := range insts {
				built.Stop()
			}
			_ = l.Close()
			return nil, err
		}
		inst = bal
		targets.Balancer = bal
		for _, si := range insts {
			if tp, ok := si.(variant.TierProvider); ok && tp.DBTier() != nil {
				targets.Tiers = append(targets.Tiers, tp.DBTier())
			}
		}
	} else {
		inst, err = buildShard(dbs[0], runSet)
		if err != nil {
			_ = l.Close()
			return nil, err
		}
		if tp, ok := inst.(variant.TierProvider); ok && tp.DBTier() != nil {
			targets.Tiers = append(targets.Tiers, tp.DBTier())
		}
	}

	// Build the fault injector against the running system; its schedule
	// arms when the measurement window opens. Build errors (bad targets,
	// unknown plan settings) surface before any load is driven.
	var inj faults.Injector
	if faultPlan != "" {
		plan, _ := faults.Lookup(faultPlan)
		inj, err = plan.Build(faults.Env{
			Clock:   clock.Precise{},
			Scale:   cfg.Scale,
			Targets: targets,
			Set:     faultSet,
		})
		if err != nil {
			inst.Stop()
			_ = l.Close()
			return nil, err
		}
	}

	// The load profile builds the client-side driver against the
	// listener's address — harness.Run never constructs a workload
	// fleet directly.
	drv, err := prof.Build(load.Env{
		Addr:             addr,
		Clock:            clock.Precise{},
		Scale:            cfg.Scale,
		Mix:              mix,
		Customers:        counts.Customers,
		Items:            counts.Items,
		FetchImages:      cfg.FetchImages,
		ThinkExponential: cfg.ThinkExponential,
		Seed:             cfg.Seed,
		Set:              cfg.LoadSet,
		Defaults:         cfg.loadDefaults(),
	})
	if err != nil {
		inst.Stop()
		_ = l.Close()
		return nil, err
	}

	// Every probe the variant instance, the load driver, and the fault
	// injector export becomes a sampled series, one sample per paper
	// second.
	probes := append(inst.Probes(), drv.Probes()...)
	if inj != nil {
		probes = append(probes, inj.Probes()...)
	}
	for _, p := range probes {
		if _, dup := res.Series[p.Name]; dup {
			inst.Stop()
			_ = l.Close()
			return nil, fmt.Errorf("harness: probe %q of %s/%s collides with an existing series",
				p.Name, name, loadName)
		}
		res.Series[p.Name] = metrics.NewSeries(measureStart, second, metrics.AggLast)
	}
	go func() { _ = inst.Serve(l) }()
	clk := clock.Real{}
	samplers := make([]*metrics.Sampler, 0, len(probes)+2)
	for _, p := range probes {
		samplers = append(samplers, metrics.StartSampler(clk, second, p.Gauge, res.Series[p.Name]))
	}

	// Windowed SLO attainment: the driver's cumulative within/total
	// counter pair, sampled once per paper second, is the signal the
	// recovery column is computed from after the run.
	slo := cfg.SLO
	if slo <= 0 {
		slo = 3 * time.Second
	}
	drv.Stats().SetSLOThreshold(cfg.Scale.Wall(slo))
	sloWithin := metrics.NewSeries(measureStart, second, metrics.AggLast)
	sloTotal := metrics.NewSeries(measureStart, second, metrics.AggLast)
	samplers = append(samplers,
		metrics.StartSampler(clk, second, func() float64 {
			w, _ := drv.Stats().SLOCounts()
			return float64(w)
		}, sloWithin),
		metrics.StartSampler(clk, second, func() float64 {
			_, t := drv.Stats().SLOCounts()
			return float64(t)
		}, sloTotal))

	// Drive load: ramp-up (not recorded), measure, cool-down. The fault
	// schedule arms when the measurement window opens, so plan offsets
	// are paper time from the start of measurement.
	drv.Stats().SetRecording(false)
	drv.Start()

	time.Sleep(time.Until(measureStart))
	drv.Stats().Reset()
	drv.Stats().SetRecording(true)
	if inj != nil {
		inj.Start()
	}
	time.Sleep(cfg.Scale.Wall(cfg.Measure))
	drv.Stats().SetRecording(false)
	time.Sleep(cfg.Scale.Wall(cfg.CoolDown))

	drv.Stop()
	if inj != nil {
		inj.Stop()
	}
	for _, s := range samplers {
		s.Stop()
	}
	inst.Stop()

	// Assemble per-page stats: client-side WIRT means and errors,
	// server-side counts. Clustered runs count client-side instead —
	// fan-out pages complete on every shard, so server-side counts
	// would tally one interaction nShards times.
	countMu.Lock()
	defer countMu.Unlock()
	for _, page := range tpcw.Pages {
		client := drv.Stats().Page(page)
		count := pageCounts[page]
		if clustered {
			count = client.Count
		}
		res.Pages[page] = PageStat{
			Page:         page,
			Count:        count,
			Errors:       client.Errors,
			MeanPaperSec: cfg.Scale.PaperSeconds(client.Mean),
		}
		res.TotalInteractions += count
	}
	res.Errors = drv.Stats().Errors()

	// Tail latency and SLO attainment over the whole interaction stream.
	res.P99PaperSec = cfg.Scale.PaperSeconds(drv.Stats().OverallQuantile(0.99))
	res.P999PaperSec = cfg.Scale.PaperSeconds(drv.Stats().OverallQuantile(0.999))
	res.SLOPaperSec = slo.Seconds()
	res.SLOAttained = drv.Stats().FractionWithin(cfg.Scale.Wall(slo))

	// Fault outcome: when the first injection landed and how long SLO
	// attainment took to come back.
	if inj != nil {
		res.FaultPlan = faultPlan
		res.FaultEvents = inj.Events()
		res.FaultPaperSec = -1
		res.RecoveryPaperSec = -1
		if len(res.FaultEvents) > 0 {
			fault := res.FaultEvents[0].At
			res.FaultPaperSec = fault.Seconds()
			res.RecoveryPaperSec = recoveryPaperSec(sloWithin, sloTotal, fault)
		}
	}
	res.WallDuration = time.Since(wallStart)
	return res, nil
}

// Recovery detection: attainment is evaluated over a trailing window of
// recoveryWindow paper seconds, and the system counts as recovered when
// the windowed value climbs back to recoveryFraction of the cumulative
// pre-fault attainment.
const (
	recoveryWindow   = 3
	recoveryFraction = 0.95
)

// recoveryPaperSec computes the MTTR-style recovery time from the
// sampled cumulative SLO counters: paper seconds from the fault offset
// until the first post-fault paper second whose trailing-window SLO
// attainment reaches recoveryFraction of the pre-fault level. It
// returns -1 when attainment never recovers inside the sampled window
// (or there was no pre-fault traffic to set a baseline).
func recoveryPaperSec(within, total *metrics.Series, fault time.Duration) float64 {
	w := cumulative(within)
	t := cumulative(total)
	n := len(w)
	if len(t) < n {
		n = len(t)
	}
	// Bucket i covers paper second i of the measurement window (the
	// series' bucket width is one paper second of wall time).
	faultIdx := int(fault / time.Second)
	if faultIdx < 0 || faultIdx >= n || t[faultIdx] == 0 {
		return -1
	}
	baseline := w[faultIdx] / t[faultIdx]
	if baseline <= 0 {
		return -1
	}
	for s := faultIdx + 1; s < n; s++ {
		// Trailing window (from, s], clamped so pre-fault seconds never
		// mask post-fault degradation.
		from := s - recoveryWindow
		if from < faultIdx {
			from = faultIdx
		}
		dt := t[s] - t[from]
		if dt <= 0 {
			continue
		}
		att := (w[s] - w[from]) / dt
		if att >= recoveryFraction*baseline {
			return float64(s - faultIdx)
		}
	}
	return -1
}

// cumulative reads an AggLast-sampled cumulative counter series,
// forward-filling empty buckets: the counter is non-decreasing, so a
// bucket reading below its predecessor is a missed sample, not a reset.
func cumulative(s *metrics.Series) []float64 {
	pts := s.Points()
	out := make([]float64, len(pts))
	prev := 0.0
	for i, p := range pts {
		v := p.Value
		if v < prev {
			v = prev
		}
		out[i] = v
		prev = v
	}
	return out
}

// ThroughputGainPercent computes the headline number between any pair of
// runs: the test run's total-interaction gain over the base run (the
// paper reports +31.3% for modified over unmodified).
func ThroughputGainPercent(base, test *Result) float64 {
	if base == nil || test == nil || base.TotalInteractions == 0 {
		return 0
	}
	return (float64(test.TotalInteractions) - float64(base.TotalInteractions)) /
		float64(base.TotalInteractions) * 100
}
