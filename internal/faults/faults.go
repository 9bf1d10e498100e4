// Package faults makes failure a first-class experiment input,
// mirroring internal/load on the dependability side: a Plan is a named
// fault recipe that builds a running Injector from an environment (the
// database tiers and cluster balancer under test, a clock, a
// timescale, generic settings), and a process-wide registry maps names
// to recipes.
//
// The experiment layers above — internal/harness, cmd/experiments —
// never switch on a failure shape. They look a plan name up via the
// faults= setting, build it against the running system, start it when
// the measurement window opens, and sample its fault.injected probe
// next to every other series. The built-in plans (replica-kill,
// shard-down, slow-backend, conn-drop, leak) are registered in
// builtin.go; a new failure scenario is one Register call and is
// immediately runnable, sweepable, and plottable everywhere.
//
// Every schedule runs on the injected clock.Clock at paper-time
// offsets, so a plan replays deterministically under clock.Manual:
// the same plan advanced over the same schedule injects the same
// actions at the same paper timestamps, every time.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/cluster"
	"stagedweb/internal/dbtier"
	"stagedweb/internal/metrics"
	"stagedweb/internal/variant"
)

// ProbeInjected counts fault-plan actions executed so far — kills,
// restarts, slowdowns, connection drops, leaks. The "fault." prefix is
// reserved for injector probes.
const ProbeInjected = "fault.injected"

// Targets is the running system a plan injects faults into.
type Targets struct {
	// Tiers are the database tiers under test, one per shard (a
	// single-instance run has exactly one).
	Tiers []*dbtier.Tier
	// Balancer is the cluster front end, nil when the run is not
	// sharded. Plans that need it (shard-down, conn-drop) fail to
	// build without it.
	Balancer *cluster.Balancer
}

// Env is everything a Plan needs to build an Injector.
type Env struct {
	// Clock schedules every injection; the harness injects its
	// experiment clock, tests inject clock.Manual. Nil means
	// clock.Real.
	Clock clock.Clock
	// Scale converts the plan's paper-time offsets to wall time.
	Scale clock.Timescale
	// Targets is the system under test.
	Targets Targets
	// Set holds explicit plan settings (the faultset= value). A key the
	// plan does not understand is a build error — typos must not pass
	// silently.
	Set variant.Settings
	// Defaults holds advisory settings; a plan applies the keys it
	// understands and ignores the rest.
	Defaults variant.Settings
}

// clk returns the environment's clock, defaulting to the runtime clock.
func (e Env) clk() clock.Clock {
	if e.Clock != nil {
		return e.Clock
	}
	return clock.Real{}
}

// Event is one executed injection: its nominal paper-time offset from
// Start and a human-readable action. Offsets are schedule-nominal, not
// measured, so a replayed plan reports identical events.
type Event struct {
	At     time.Duration `json:"at_ns"`
	Action string        `json:"action"`
}

// Injector is a built, runnable fault schedule.
type Injector interface {
	// Start arms the schedule: offsets count from here. It does not
	// block and is idempotent.
	Start()
	// Stop cancels pending injections and waits for in-flight ones.
	// Call after Start; idempotent.
	Stop()
	// Probes lists the fault.* gauges this injector exports.
	Probes() []variant.Probe
	// Events lists the injections executed so far, in schedule order.
	Events() []Event
}

// Plan is a named fault recipe.
type Plan interface {
	// Name is the registry key ("replica-kill", "shard-down", ...).
	Name() string
	// Build validates settings against the running system and returns
	// an unstarted Injector.
	Build(Env) (Injector, error)
}

// funcPlan adapts a build function into a Plan.
type funcPlan struct {
	name  string
	build func(Env) (Injector, error)
}

func (p funcPlan) Name() string                    { return p.name }
func (p funcPlan) Build(env Env) (Injector, error) { return p.build(env) }

// New wraps a name and a build function as a Plan.
func New(name string, build func(Env) (Injector, error)) Plan {
	return funcPlan{name: name, build: build}
}

var (
	regMu    sync.RWMutex
	registry = map[string]Plan{}
)

// Register adds a plan to the process-wide registry. It panics on an
// empty or duplicate name: registration happens at init time, and a
// collision is a programming error.
func Register(p Plan) {
	name := p.Name()
	if name == "" {
		panic("faults: empty plan name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("faults: duplicate registration of %q", name))
	}
	registry[name] = p
}

// Lookup finds a registered plan by name.
func Lookup(name string) (Plan, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Names lists the registered plan names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DecodeSettings splits the fault-owned settings out of a config's
// explicit settings and decodes them (against the harness's advisory
// defaults): faults (a registered plan name; "" or "none" disables
// injection) and faultset ("key=value,key=value" plan settings). It
// returns the plan name ("" when disabled), the parsed plan settings,
// and a copy of the explicit settings with the fault keys removed —
// what the cluster and variant layers should see.
func DecodeSettings(explicit, defaults variant.Settings) (string, variant.Settings, variant.Settings, error) {
	faultKeys := []string{"faults", "faultset"}
	own := variant.Settings{}
	rest := explicit.Clone()
	for _, k := range faultKeys {
		if v, ok := explicit[k]; ok {
			own[k] = v
			delete(rest, k)
		}
	}
	ownDefaults := variant.Settings{}
	for _, k := range faultKeys {
		if v, ok := defaults[k]; ok {
			ownDefaults[k] = v
		}
	}
	d := variant.NewSettingsDecoder(own, ownDefaults)
	plan := d.String("faults", "")
	raw := d.String("faultset", "")
	if err := d.Finish(); err != nil {
		return "", nil, nil, fmt.Errorf("faults: %w", err)
	}
	if plan == "none" {
		plan = ""
	}
	if plan != "" {
		if _, ok := Lookup(plan); !ok {
			return "", nil, nil, fmt.Errorf("faults: unknown plan %q (have %s)", plan, strings.Join(Names(), ", "))
		}
	}
	set := variant.Settings{}
	if raw != "" {
		if plan == "" {
			return "", nil, nil, fmt.Errorf("faults: faultset=%q given without a faults= plan", raw)
		}
		for _, kv := range strings.Split(raw, ",") {
			k, v, err := variant.ParseKV(kv)
			if err != nil {
				return "", nil, nil, fmt.Errorf("faults: faultset: %w", err)
			}
			set[k] = v
		}
	}
	return plan, set, rest, nil
}

// step is one scheduled injection: fire at paper offset at, then — when
// repeat is positive — again every repeat until stopped.
type step struct {
	at     time.Duration
	repeat time.Duration
	action string
	run    func()
}

// StepInjector executes a schedule of steps on the environment's
// clock. Each step gets its own goroutine, so a long-delay step never
// holds up an earlier one; all delays are nominal paper offsets
// converted through the timescale, which is what makes replays
// deterministic under clock.Manual. It is the scaffolding every
// built-in plan is made of, exported so plans registered outside this
// package can reuse it.
type StepInjector struct {
	clk   clock.Clock
	scale clock.Timescale
	steps []step

	started  sync.Once
	stopped  sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
	injected metrics.Counter

	evMu   sync.Mutex
	events []Event
}

// NewInjector returns an empty step-scheduling injector for env.
func NewInjector(env Env) *StepInjector {
	scale := env.Scale
	if scale <= 0 {
		scale = clock.RealTime
	}
	return &StepInjector{
		clk:   env.clk(),
		scale: scale,
		done:  make(chan struct{}),
	}
}

func (in *StepInjector) add(s step) { in.steps = append(in.steps, s) }

// Add schedules a one-shot step: at the paper-time offset, run the
// action (recorded under the given label in Events). Repeating steps
// stay internal to the built-in plans.
func (in *StepInjector) Add(at time.Duration, action string, run func()) {
	in.add(step{at: at, action: action, run: run})
}

// Start implements Injector.
func (in *StepInjector) Start() {
	in.started.Do(func() {
		for _, s := range in.steps {
			s := s
			in.wg.Add(1)
			go in.runStep(s)
		}
	})
}

// Stop implements Injector.
func (in *StepInjector) Stop() {
	in.stopped.Do(func() {
		close(in.done)
		in.wg.Wait()
	})
}

func (in *StepInjector) runStep(s step) {
	defer in.wg.Done()
	at, wait := s.at, s.at
	for {
		select {
		case <-in.done:
			return
		case <-in.clk.After(in.scale.Wall(wait)):
		}
		s.run()
		in.injected.Inc()
		in.evMu.Lock()
		in.events = append(in.events, Event{At: at, Action: s.action})
		in.evMu.Unlock()
		if s.repeat <= 0 {
			return
		}
		at += s.repeat
		wait = s.repeat
	}
}

// Probes implements Injector.
func (in *StepInjector) Probes() []variant.Probe {
	return []variant.Probe{
		{Name: ProbeInjected, Gauge: func() float64 { return float64(in.injected.Value()) }},
	}
}

// Events implements Injector.
func (in *StepInjector) Events() []Event {
	in.evMu.Lock()
	defer in.evMu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Action < out[j].Action
	})
	return out
}
