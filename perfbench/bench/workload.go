// Package bench holds the pieces of the repository benchmark that the
// load generator (cmd/benchrun), the server process (cmd/benchserver)
// and their tests share: workload definitions, the seeded request
// stream, latency summaries and span arithmetic.
package bench

import (
	"fmt"
	"sort"

	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
)

// Population is poolserv's default TPC-W population; every workload
// serves it.
var Population = tpcw.PopulateConfig{Items: 10000, Customers: 2880, Orders: 2592}

// Conns is the number of client connections the generator drives. It is
// fixed rather than taken from the host's CPU count so that a run on a
// bigger machine offers the same load.
const Conns = 2

// LateLimitMS is the open-loop generator lateness (p99 of send time minus
// due time, excluding waits for a busy connection) above which a run's
// ol_* metrics are reported invalid.
const LateLimitMS = 50.0

// IDHeader carries the request id the generator assigns, so server-side
// spans can be joined to client spans.
const IDHeader = "X-Bench-Id"

// Workload is one traffic mix against one server configuration.
type Workload struct {
	Name string
	// Settings configure the "modified" (staged) variant. A "shards"
	// key puts the instances behind the cluster balancer.
	Settings variant.Settings
	// Mix is the page distribution the sessions draw from.
	Mix []tpcw.PageWeight
	// Images fetches each page's embedded images (at most MaxImages) on
	// the page's connection, as part of the interaction.
	Images bool
	// FreshConn opens a new connection per interaction and closes it
	// afterwards, as the repository's emulated browsers do; otherwise
	// each client keeps one keep-alive connection.
	FreshConn bool
	// Rate is the open-loop phase's Poisson arrival rate, interactions
	// per second: about a fifth of the closed-loop capacity measured on
	// the commit that defined the benchmark. The open-loop latency is
	// then an idle server's service time, not a queue: at half capacity
	// a host slowed by other tenants pushed the two connections into
	// the queueing knee and the median moved fourfold. It is never
	// rescaled.
	Rate float64
	// Precheck byte-compares fixed pages against the handler and
	// template called directly before any load runs.
	Precheck bool
}

// MaxImages caps the embedded images fetched per page.
const MaxImages = 6

// Workloads lists the benchmark's workloads by name.
var Workloads = map[string]*Workload{
	// The paper's workload. cutoff=1ms sits between the two page classes
	// (scan pages cost milliseconds, point pages a tenth of that), as the
	// paper's 2 s does at its scale, so the classifier marks scan pages
	// lengthy. general=8 keeps t_spare under the default t_reserve floor
	// of 20, so Table 1 sends every lengthy page to the lengthy pool; with
	// the default 64 workers and two connections it never would.
	"browse": {
		Name:      "browse",
		Settings:  variant.Settings{"cutoff": "1ms", "general": "8"},
		Mix:       tpcw.BrowsingMix,
		Images:    true,
		FreshConn: true,
		Rate:      150,
		Precheck:  true,
	},
	// The per-request path alone: no scans, no images, keep-alive.
	"quick": {
		Name:     "quick",
		Settings: variant.Settings{"general": "8"},
		Mix:      NonSlow(tpcw.BrowsingMix),
		Rate:     1900,
		Precheck: true,
	},
	// The write path: DML with index maintenance, MVCC commits, sync
	// replication and the balancer hop.
	"checkout": {
		Name: "checkout",
		Settings: variant.Settings{
			"mvcc": "on", "repl": "sync", "indexes": "on", "shards": "2", "replicas": "2",
		},
		Mix:    NonSlow(tpcw.OrderingMix),
		Images: true,
		Rate:   450,
	},
}

// Lookup finds a workload by name.
func Lookup(name string) (*Workload, error) {
	w, ok := Workloads[name]
	if !ok {
		names := make([]string, 0, len(Workloads))
		for n := range Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	return w, nil
}

// NonSlow drops the paper's slow pages from a mix; the weights of the
// remaining pages keep their ratios.
func NonSlow(mix []tpcw.PageWeight) []tpcw.PageWeight {
	var out []tpcw.PageWeight
	for _, pw := range mix {
		if !tpcw.SlowPages[pw.Page] {
			out = append(out, pw)
		}
	}
	return out
}

// Class is the paper's fixed page class of a dynamic page: "lengthy"
// for tpcw.SlowPages, "quick" for every other page.
func Class(page string) string {
	if tpcw.SlowPages[page] {
		return "lengthy"
	}
	return "quick"
}
