package harness

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"stagedweb/internal/variant"
)

// Scenario is one cell of an experiment matrix: a unique label plus the
// full run configuration (variant name, load level, setting mutations).
// Build cells from a base config with Config.With:
//
//	harness.Scenario{
//		Name:   "modified/ebs=200",
//		Config: base.With(func(c *harness.Config) { c.EBs = 200 }),
//	}
type Scenario struct {
	// Name labels the cell in reports and artifact files; it must be
	// unique within a sweep.
	Name string `json:"name"`
	// Config is the complete run configuration.
	Config Config `json:"config"`
}

// LoadSpec names one load-profile cell of a scenario matrix: a
// registered profile plus its settings.
type LoadSpec struct {
	// Profile is the registered load-profile name (load.Steady,
	// load.Spike, ...); empty means steady.
	Profile string
	// Set holds the profile settings for this cell.
	Set variant.Settings
}

// Matrix builds the variant × load-profile scenario grid from a base
// config: one cell per pair, named "variant/profile". Both registries
// are open, so any topology can meet any workload shape with no new
// harness code.
func Matrix(base Config, variants []string, loads []LoadSpec) []Scenario {
	out := make([]Scenario, 0, len(variants)*len(loads))
	for _, v := range variants {
		for _, ld := range loads {
			cfg := base.With(func(c *Config) {
				c.Variant = v
				c.Load = ld.Profile
				c.LoadSet = ld.Set.Clone()
			})
			out = append(out, Scenario{Name: v + "/" + cfg.LoadName(), Config: cfg})
		}
	}
	return out
}

// ShardMatrix builds the shards × replicas × load-profile scenario grid
// from a base config: one cell per combination, named
// "shards=M/replicas=R/profile". Every cell — shards=1 included — runs
// through the cluster balancer, so cells differ only in shard count,
// not in topology.
func ShardMatrix(base Config, shards, replicas []int, loads []LoadSpec) []Scenario {
	out := make([]Scenario, 0, len(shards)*len(replicas)*len(loads))
	for _, m := range shards {
		for _, r := range replicas {
			for _, ld := range loads {
				m, r := m, r
				cfg := base.With(func(c *Config) {
					c.Set["shards"] = strconv.Itoa(m)
					c.Set["replicas"] = strconv.Itoa(r)
					c.Load = ld.Profile
					c.LoadSet = ld.Set.Clone()
				})
				name := fmt.Sprintf("shards=%d/replicas=%d/%s", m, r, cfg.LoadName())
				out = append(out, Scenario{Name: name, Config: cfg})
			}
		}
	}
	return out
}

// SweepRun is one finished (or failed) scenario of a sweep.
type SweepRun struct {
	Scenario Scenario
	// Result is nil when the run failed or was cancelled.
	Result *Result
	Err    error
}

// SweepResult collects a sweep's runs in scenario order.
type SweepResult struct {
	Runs []SweepRun
}

// Result returns the named scenario's result, or nil if it is missing
// or failed.
func (sr *SweepResult) Result(name string) *Result {
	for _, r := range sr.Runs {
		if r.Scenario.Name == name {
			return r.Result
		}
	}
	return nil
}

// GainPercent generalises the paper's headline number to any pair of
// scenarios: the test scenario's total-interaction gain over base.
func (sr *SweepResult) GainPercent(base, test string) float64 {
	return ThroughputGainPercent(sr.Result(base), sr.Result(test))
}

// Report renders a comparative table of every run, with throughput gain
// computed against the sweep's first scenario.
func (sr *SweepResult) Report() string {
	var sb strings.Builder
	if len(sr.Runs) == 0 {
		return "sweep: no runs\n"
	}
	base := sr.Runs[0].Scenario.Name
	fmt.Fprintf(&sb, "sweep report (gain vs %s)\n", base)
	fmt.Fprintf(&sb, "%-32s %13s %8s %8s %8s %7s %9s %10s %8s\n",
		"scenario", "interactions", "errors", "p99", "p999", "slo", "recovery", "wall", "gain")
	sb.WriteString(strings.Repeat("-", 110) + "\n")
	for _, r := range sr.Runs {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-32s failed: %v\n", r.Scenario.Name, r.Err)
			continue
		}
		if r.Result == nil {
			fmt.Fprintf(&sb, "%-32s (not run)\n", r.Scenario.Name)
			continue
		}
		gain := "-"
		if r.Scenario.Name != base {
			gain = fmt.Sprintf("%+.1f%%", sr.GainPercent(base, r.Scenario.Name))
		}
		fmt.Fprintf(&sb, "%-32s %13d %8d %7.2fs %7.2fs %6.1f%% %9s %10v %8s\n",
			r.Scenario.Name, r.Result.TotalInteractions, r.Result.Errors,
			r.Result.P99PaperSec, r.Result.P999PaperSec, r.Result.SLOAttained*100,
			recoveryCell(r.Result),
			r.Result.WallDuration.Round(time.Millisecond), gain)
	}
	return sb.String()
}

// recoveryCell renders a run's recovery column: "-" for fault-free
// runs, "no-inj" when the plan never fired inside the window, "never"
// when SLO attainment did not come back, and the paper-time recovery
// otherwise.
func recoveryCell(res *Result) string {
	if res.FaultPlan == "" {
		return "-"
	}
	switch {
	case res.FaultPaperSec < 0:
		return "no-inj"
	case res.RecoveryPaperSec < 0:
		return "never"
	default:
		return fmt.Sprintf("%.0fs", res.RecoveryPaperSec)
	}
}

// SweepOptions tunes a sweep.
type SweepOptions struct {
	// Parallelism bounds concurrently executing runs; values below 2
	// run sequentially. Concurrent runs share the host's cores, so
	// timing fidelity degrades — keep sweeps sequential when the
	// numbers matter and parallel when shape-scanning a large matrix.
	Parallelism int
	// OnResult, when set, is invoked as each scenario finishes (in
	// completion order) — progress reporting for CLIs. Calls are
	// serialized.
	OnResult func(Scenario, *Result, error)
}

// Sweep executes the scenario matrix sequentially. See SweepWith.
func Sweep(ctx context.Context, scenarios []Scenario) (*SweepResult, error) {
	return SweepWith(ctx, SweepOptions{}, scenarios)
}

// SweepWith executes every scenario, honouring ctx between runs (a run
// in flight is not interrupted — experiments are short at the usual
// timescales). The returned SweepResult always has one entry per
// scenario in input order; the error joins every per-run failure plus
// the context's, so partial results remain usable alongside a non-nil
// error.
func SweepWith(ctx context.Context, opts SweepOptions, scenarios []Scenario) (*SweepResult, error) {
	seen := make(map[string]bool, len(scenarios))
	for _, sc := range scenarios {
		if sc.Name == "" {
			return nil, fmt.Errorf("harness: sweep scenario with empty name")
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("harness: duplicate sweep scenario %q", sc.Name)
		}
		seen[sc.Name] = true
	}

	sr := &SweepResult{Runs: make([]SweepRun, len(scenarios))}
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}

	var (
		mu   sync.Mutex // guards OnResult
		wg   sync.WaitGroup
		sem  = make(chan struct{}, workers)
		errs = make([]error, len(scenarios)+1)
	)
	for i, sc := range scenarios {
		sr.Runs[i] = SweepRun{Scenario: sc}
		skip := ctx.Err()
		if skip == nil {
			select {
			case <-ctx.Done():
				skip = ctx.Err()
			case sem <- struct{}{}:
			}
		}
		if skip != nil {
			sr.Runs[i].Err = skip
			errs[i] = fmt.Errorf("%s: %w", sc.Name, skip)
			continue
		}
		wg.Add(1)
		go func(i int, sc Scenario) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := Run(sc.Config)
			if err != nil {
				err = fmt.Errorf("%s: %w", sc.Name, err)
			}
			sr.Runs[i].Result, sr.Runs[i].Err = res, err
			errs[i] = err
			if opts.OnResult != nil {
				mu.Lock()
				opts.OnResult(sc, res, err)
				mu.Unlock()
			}
		}(i, sc)
	}
	wg.Wait()
	errs[len(scenarios)] = ctx.Err()
	return sr, errors.Join(errs...)
}
