// Package variant makes server topologies first-class values: a Variant
// is a named recipe that builds a runnable server Instance from an
// environment (application, database, clocks, cost models, generic
// settings), and a process-wide registry maps names to recipes.
//
// The point of the indirection is that the experiment layers above —
// internal/harness, cmd/experiments, cmd/poolserv — never switch on a
// server type. They look a name up, build it, serve it, and sample its
// Probes into time series. Adding a topology is one Register call; every
// sweep, table, figure, CLI mode, and JSON artifact picks it up with
// zero edits elsewhere. The built-in variants (unmodified, modified,
// modified-noreserve) are registered in builtin.go; the ablation variant
// is derived from the modified recipe purely through settings, proving
// that topologies are configuration, not code.
package variant

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"stagedweb/internal/clock"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/stage"
)

// Probe is a named gauge a running Instance exposes. The harness samples
// every probe once per paper second into a metrics.Series keyed by the
// probe's name, replacing hand-wired per-variant sampler blocks.
//
// Names follow a dotted <subsystem>.<metric> scheme ("queue.general",
// "sched.reserve") so series selectors in figures, CSV/JSON artifacts,
// and stats printouts stay uniform across variants. The "throughput."
// prefix is reserved for series the harness computes from completion
// events.
type Probe struct {
	// Name keys the sampled series.
	Name string
	// Gauge reads the current value. It must be safe to call
	// concurrently with the server running, and after Stop.
	Gauge func() float64
}

// Instance is a built, runnable server variant.
type Instance interface {
	// Serve accepts connections on l until Stop. It blocks; run it in a
	// goroutine. The error is nil after a clean Stop.
	Serve(l net.Listener) error
	// Stop shuts the server down, draining in-flight work. Idempotent,
	// and safe to call before, during, or after Serve.
	Stop()
	// Graph exposes the stage graph for uniform stats snapshots.
	Graph() *stage.Graph
	// Probes lists the gauges this variant exports.
	Probes() []Probe
}

// Env is everything a Variant needs to build an Instance.
type Env struct {
	// App is the application to serve.
	App server.App
	// DB is the database variants draw connections from.
	DB *sqldb.DB
	// Clock and Scale drive controllers and paper-time conversion. Nil
	// and zero take the builders' defaults (real time).
	Clock clock.Clock
	Scale clock.Timescale
	// Cost models render/static worker time; the zero value charges
	// nothing.
	Cost server.WorkCost
	// OnComplete, when set, receives a completion event per request.
	OnComplete func(server.CompletionEvent)

	// Set holds explicit setting overrides (CLI -set key=value,
	// harness.Config.Set, scenario mutations). A key the variant does
	// not understand is a build error — typos must not pass silently.
	Set Settings
	// Defaults holds advisory settings (harness.Config.Defaults: the
	// per-topology pool sizes). A variant applies the keys it
	// understands and ignores the rest, so one experiment config can
	// drive any topology.
	Defaults Settings
}

// Variant is a named server topology recipe.
type Variant interface {
	// Name is the registry key ("modified", "unmodified", ...).
	Name() string
	// Build constructs a runnable Instance from the environment.
	Build(Env) (Instance, error)
}

// funcVariant adapts a build function into a Variant.
type funcVariant struct {
	name  string
	build func(Env) (Instance, error)
}

func (v funcVariant) Name() string                    { return v.name }
func (v funcVariant) Build(env Env) (Instance, error) { return v.build(env) }

// New wraps a name and a build function as a Variant.
func New(name string, build func(Env) (Instance, error)) Variant {
	return funcVariant{name: name, build: build}
}

// Derive returns a variant that builds base with the forced settings
// layered over the caller's — a topology defined purely by
// configuration. The forced settings win over Env.Set, so a derived
// variant cannot be un-derived from the command line.
func Derive(name string, base Variant, force Settings) Variant {
	return New(name, func(env Env) (Instance, error) {
		env.Set = env.Set.Merge(force)
		return base.Build(env)
	})
}

var (
	regMu    sync.RWMutex
	registry = map[string]Variant{}
)

// Register adds a variant to the process-wide registry. It panics on an
// empty or duplicate name: registration happens at init time, and a
// collision is a programming error.
func Register(v Variant) {
	name := v.Name()
	if name == "" {
		panic("variant: empty variant name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("variant: duplicate registration of %q", name))
	}
	registry[name] = v
}

// Lookup finds a registered variant by name.
func Lookup(name string) (Variant, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	v, ok := registry[name]
	return v, ok
}

// Names lists the registered variant names, sorted.
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
