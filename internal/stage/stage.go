// Package stage implements the generic stage-graph runtime both server
// variants are built on.
//
// A Stage couples a bounded synchronized queue with a fixed-size pool of
// worker goroutines — CherryPy's listener, queue and thread pool — and
// tracks the per-stage gauges the DSN'09 evaluation reads: queue depth
// (Figures 7 and 8), busy/spare workers (t_spare), completed items, and
// shed items. A Graph owns an ordered set of stages, starts them
// together, drains them in flow order on Stop, and exposes one uniform
// stats snapshot for harnesses and operational tooling.
//
// The paper's fixed five-pool topology (package core) and the
// thread-per-request baseline (package server) are both expressed as
// graphs over this runtime; new topology variants are configuration, not
// new server code.
package stage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"stagedweb/internal/metrics"
)

// Backpressure selects what Submit does when the stage queue is full.
type Backpressure int

const (
	// Block makes Submit wait for queue space — the CherryPy behaviour
	// the paper models, where the listener blocks on the synchronized
	// queue.
	Block Backpressure = iota
	// Shed makes Submit drop the item when the queue is full (counted in
	// Stats.Shed). Load-shedding stages use this to bound latency.
	Shed
)

// ErrClosed reports a submit to a stopped stage.
var ErrClosed = errors.New("stage: closed")

// ErrShed reports an item dropped by a Shed-policy stage (or Offer) on a
// full queue.
var ErrShed = errors.New("stage: shed on full queue")

// Config describes one stage.
type Config[T any] struct {
	// Name identifies the stage in stats and panics. Required.
	Name string
	// Workers is the fixed worker count. Required, positive.
	Workers int
	// QueueCap bounds the stage queue. Defaults to 4096.
	QueueCap int
	// Backpressure selects Submit's full-queue behaviour (default Block).
	Backpressure Backpressure
	// Work processes one item on a stage worker. Required.
	Work func(T)
}

// Stage is one node of the graph: a bounded queue drained by a fixed
// worker pool. Each worker corresponds to one thread of a CherryPy pool;
// the busy/spare split is tracked because the paper's dispatcher reads
// the general stage's spare count (t_spare) on every lengthy-request
// dispatch.
type Stage[T any] struct {
	name    string
	policy  Backpressure
	workers int
	work    func(T)
	queue   *queue[T]

	busy      atomic.Int64
	completed atomic.Int64
	shed      metrics.Counter
	wg        sync.WaitGroup
	started   atomic.Bool
}

// New builds an unstarted stage. It panics on an invalid configuration.
func New[T any](cfg Config[T]) *Stage[T] {
	if cfg.Name == "" {
		panic("stage: empty name")
	}
	if cfg.Workers <= 0 {
		panic(fmt.Sprintf("stage %q: non-positive worker count %d", cfg.Name, cfg.Workers))
	}
	if cfg.Work == nil {
		panic(fmt.Sprintf("stage %q: nil work function", cfg.Name))
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	return &Stage[T]{
		name:    cfg.Name,
		policy:  cfg.Backpressure,
		workers: cfg.Workers,
		work:    cfg.Work,
		queue:   newQueue[T](cfg.QueueCap),
	}
}

// Start launches the stage workers. It panics if called twice.
func (s *Stage[T]) Start() {
	if !s.started.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("stage %q: started twice", s.name))
	}
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
}

func (s *Stage[T]) worker() {
	defer s.wg.Done()
	for {
		item, ok := s.queue.get()
		if !ok {
			return
		}
		s.busy.Add(1)
		s.work(item)
		s.busy.Add(-1)
		s.completed.Add(1)
	}
}

// Stop closes the stage queue and waits for the workers to drain it and
// finish in-flight work. Idempotent.
func (s *Stage[T]) Stop() {
	s.queue.close()
	s.wg.Wait()
}

// Submit enqueues item following the stage's backpressure policy: Block
// stages wait for space, Shed stages drop (returning ErrShed) when full.
// ErrClosed reports a stopped stage.
func (s *Stage[T]) Submit(item T) error {
	if s.policy == Shed {
		return s.Offer(item)
	}
	if err := s.queue.put(item); err != nil {
		return fmt.Errorf("%w: %s", ErrClosed, s.name)
	}
	return nil
}

// Offer enqueues item without ever blocking, regardless of policy. A full
// queue sheds the item (counted, ErrShed); a stopped stage reports
// ErrClosed.
func (s *Stage[T]) Offer(item T) error {
	ok, err := s.queue.tryPut(item)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrClosed, s.name)
	}
	if !ok {
		s.shed.Inc()
		return fmt.Errorf("%w: %s", ErrShed, s.name)
	}
	return nil
}

// Name reports the stage name.
func (s *Stage[T]) Name() string { return s.name }

// Workers reports the configured worker count.
func (s *Stage[T]) Workers() int { return s.workers }

// Busy reports workers currently executing work.
func (s *Stage[T]) Busy() int { return int(s.busy.Load()) }

// Spare reports idle workers — the paper's t_spare when read on the
// general dynamic stage.
func (s *Stage[T]) Spare() int { return max(0, s.workers-s.Busy()) }

// Depth reports the current queue length — the quantity plotted in
// Figures 7 and 8.
func (s *Stage[T]) Depth() int { return s.queue.len() }

// Completed reports items fully processed by this stage.
func (s *Stage[T]) Completed() int64 { return s.completed.Load() }

// ShedCount reports items dropped on a full queue.
func (s *Stage[T]) ShedCount() int64 { return s.shed.Value() }

// Stats is one stage's uniform snapshot.
type Stats struct {
	Name      string
	Workers   int
	Busy      int
	Spare     int
	Depth     int
	QueueCap  int
	MaxDepth  int
	Enqueued  int64
	Dequeued  int64
	Completed int64
	Shed      int64
	Closed    bool
}

// Stats snapshots the stage's gauges and counters.
func (s *Stage[T]) Stats() Stats {
	st := Stats{
		Name:      s.name,
		Workers:   s.workers,
		Busy:      s.Busy(),
		Spare:     s.Spare(),
		Completed: s.Completed(),
		Shed:      s.shed.Value(),
	}
	s.queue.snapshot(&st)
	return st
}

// String renders a compact one-line view, e.g.
// "general[workers:21 busy:3 depth:0]".
func (s Stats) String() string {
	return fmt.Sprintf("%s[workers:%d busy:%d depth:%d/%d completed:%d shed:%d]",
		s.Name, s.Workers, s.Busy, s.Depth, s.QueueCap, s.Completed, s.Shed)
}
