package cluster

import (
	"fmt"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/variant"
)

// Registered load-balancer policies for key-less requests.
const (
	// LBHash routes a key-less request by hashing its request target on
	// the ring — deterministic, so identical requests always land on the
	// same shard.
	LBHash = "hash"
	// LBRR round-robins key-less requests across shards.
	LBRR = "rr"
)

// Probe names the balancer exports next to the shard instances' own
// (aggregated) probes.
const (
	// ProbeShardRoute counts requests routed to a single shard
	// (cumulative; fanned-out requests count under shard.fanout).
	ProbeShardRoute = "shard.route"
	// ProbeShardFanout counts requests broadcast to every shard
	// (cumulative).
	ProbeShardFanout = "shard.fanout"
	// ProbeShardImbalance is the max-shard share of routed requests over
	// the perfectly-balanced share (1.0 = even spread, M = everything on
	// one shard).
	ProbeShardImbalance = "shard.imbalance"
	// ProbeLBWait is the load-balancer stage's current queue depth —
	// requests parsed but not yet forwarded to a shard.
	ProbeLBWait = "lb.wait"
	// ProbeLBRetry counts forward re-attempts — a pooled keep-alive
	// connection gone stale, or a transient shard error retried after
	// backoff (cumulative).
	ProbeLBRetry = "lb.retry"
	// ProbeLBBreaker counts per-shard circuit-breaker opens: a shard
	// that failed BreakerThreshold consecutive forwards is skipped
	// until its cooldown expires (cumulative; a failed half-open trial
	// re-arming the cooldown counts as a new open).
	ProbeLBBreaker = "lb.breaker"
	// ProbeLBHalfOpen counts half-open trial forwards: after an open
	// breaker's cooldown, exactly one request is let through to probe the
	// shard — success closes the breaker, failure re-arms the cooldown.
	// The shard is re-admitted by probe success, never by timer expiry
	// alone (cumulative).
	ProbeLBHalfOpen = "lb.halfopen"
)

// Options configures a Balancer.
type Options struct {
	// Shards is the number of shard instances fronted (>= 1).
	Shards int
	// LB is the key-less routing policy, LBHash (default) or LBRR.
	LB string
	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	VNodes int
	// Workers is the LB stage's worker count (0 = 16). Fan-out requests
	// hold a worker while every shard answers, so the pool bounds
	// concurrent cross-shard work too.
	Workers int
	// QueueCap bounds the LB stage queue (0 = stage default).
	QueueCap int
	// Clock schedules the balancer's paper-time deadlines (fan-out
	// deadline, retry backoff, breaker cooldown); nil means clock.Real.
	Clock clock.Clock
	// Scale converts those paper-time deadlines to wall time; <= 0
	// means clock.RealTime.
	Scale clock.Timescale
	// FanoutDeadline bounds how long a cross-shard fan-out waits for
	// every shard, in paper time, before degrading to the responses in
	// hand. Zero means the 10 s default; negative disables the deadline
	// (the old reply-after-all-forever behavior).
	FanoutDeadline time.Duration
	// Retries is how many times a failed forward is re-attempted after
	// backoff. Zero means the default of 2; negative disables retries.
	Retries int
	// RetryBackoff is the paper-time pause before each re-attempt
	// (0 = 100 ms).
	RetryBackoff time.Duration
	// BreakerThreshold opens a shard's circuit breaker after that many
	// consecutive forward failures (0 = 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker skips a shard before
	// letting a trial request through, in paper time (0 = 10 s).
	BreakerCooldown time.Duration
}

// DecodeSettings splits the cluster-owned settings out of a config's
// explicit settings and decodes them (against the harness's advisory
// defaults): shards (shard count, >= 1) and lb (hash|rr). It returns
// the decoded options, a copy of the explicit settings with the
// cluster keys removed (what the shard variant builders should see),
// and whether the cluster layer is engaged at all — true whenever a
// shards setting is present, even shards=1, so a sharded sweep's
// baseline cell runs through the same balancer hop as its scaled
// cells.
func DecodeSettings(explicit, defaults variant.Settings) (Options, variant.Settings, bool, error) {
	clusterKeys := []string{"shards", "lb"}
	own := variant.Settings{}
	rest := explicit.Clone()
	for _, k := range clusterKeys {
		if v, ok := explicit[k]; ok {
			own[k] = v
			delete(rest, k)
		}
	}
	ownDefaults := variant.Settings{}
	for _, k := range clusterKeys {
		if v, ok := defaults[k]; ok {
			ownDefaults[k] = v
		}
	}
	d := variant.NewSettingsDecoder(own, ownDefaults)
	var opts Options
	enabled := false
	if _, ok := own["shards"]; ok {
		enabled = true
	} else if _, ok := ownDefaults["shards"]; ok {
		enabled = true
	}
	opts.Shards = d.Int("shards", 1)
	opts.LB = d.Enum("lb", LBHash, LBHash, LBRR)
	if err := d.Finish(); err != nil {
		return Options{}, nil, false, fmt.Errorf("cluster: %w", err)
	}
	if opts.Shards < 1 {
		return Options{}, nil, false, fmt.Errorf("cluster: shards must be >= 1, got %d", opts.Shards)
	}
	return opts, rest, enabled, nil
}

// Decision is a routing verdict for one request.
type Decision struct {
	// Key is the partition-affinity key ("" = no affinity). Keyed
	// requests always go to the ring owner; a keyed fan-out uses the
	// owner's response as the merged reply.
	Key string
	// Fanout broadcasts the request to every shard and waits for all of
	// them — cross-shard reads scan every slice, cross-shard writes
	// apply everywhere (read-your-writes for subsequent routed reads).
	Fanout bool
}

// RouteFunc maps one parsed request (path and query) to a routing
// Decision. It must be safe for concurrent use.
type RouteFunc func(path string, query map[string]string) Decision
