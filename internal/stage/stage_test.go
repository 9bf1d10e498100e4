package stage

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStageProcessesItems(t *testing.T) {
	var sum atomic.Int64
	s := New(Config[int]{Name: "adder", Workers: 4, QueueCap: 16, Work: func(n int) {
		sum.Add(int64(n))
	}})
	s.Start()
	for i := 1; i <= 100; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Stop()
	if got := sum.Load(); got != 5050 {
		t.Fatalf("sum = %d, want 5050", got)
	}
	st := s.Stats()
	if st.Completed != 100 || st.Enqueued != 100 || st.Dequeued != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.Closed || st.Busy != 0 || st.Depth != 0 {
		t.Fatalf("post-stop stats = %+v", st)
	}
}

func TestStageSubmitAfterStop(t *testing.T) {
	s := New(Config[int]{Name: "x", Workers: 1, Work: func(int) {}})
	s.Start()
	s.Stop()
	if err := s.Submit(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Stop = %v, want ErrClosed", err)
	}
	if err := s.Offer(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Offer after Stop = %v, want ErrClosed", err)
	}
}

func TestStageShedPolicy(t *testing.T) {
	release := make(chan struct{})
	s := New(Config[int]{Name: "sheddy", Workers: 1, QueueCap: 1, Backpressure: Shed,
		Work: func(int) { <-release }})
	s.Start()
	defer func() { close(release); s.Stop() }()

	// First item occupies the worker, second fills the queue.
	if err := s.Submit(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Busy() == 1 })
	if err := s.Submit(2); err != nil {
		t.Fatal(err)
	}
	// Queue is now full: a Shed-policy Submit must drop, not block.
	if err := s.Submit(3); !errors.Is(err, ErrShed) {
		t.Fatalf("Submit on full shed stage = %v, want ErrShed", err)
	}
	if got := s.ShedCount(); got != 1 {
		t.Fatalf("ShedCount = %d, want 1", got)
	}
}

func TestStageOfferShedsOnBlockStage(t *testing.T) {
	release := make(chan struct{})
	s := New(Config[int]{Name: "blocky", Workers: 1, QueueCap: 1, Work: func(int) { <-release }})
	s.Start()
	defer func() { close(release); s.Stop() }()
	if err := s.Submit(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Busy() == 1 })
	if err := s.Submit(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Offer(3); !errors.Is(err, ErrShed) {
		t.Fatalf("Offer on full stage = %v, want ErrShed", err)
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("Shed = %d, want 1", s.Stats().Shed)
	}
}

func TestStageGauges(t *testing.T) {
	release := make(chan struct{})
	s := New(Config[int]{Name: "gauges", Workers: 2, QueueCap: 8, Work: func(int) { <-release }})
	if s.Workers() != 2 || s.Spare() != 2 || s.Depth() != 0 {
		t.Fatalf("idle gauges: workers=%d spare=%d depth=%d", s.Workers(), s.Spare(), s.Depth())
	}
	s.Start()
	for i := 0; i < 3; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.Busy() == 2 && s.Depth() == 1 })
	if s.Spare() != 0 {
		t.Fatalf("Spare = %d, want 0", s.Spare())
	}
	close(release)
	s.Stop()
	if s.Stats().MaxDepth < 1 {
		t.Fatalf("MaxDepth = %d, want >= 1", s.Stats().MaxDepth)
	}
	if got := s.Stats().String(); !strings.Contains(got, "gauges[") {
		t.Fatalf("Stats.String = %q", got)
	}
}

func TestStageConfigValidation(t *testing.T) {
	assertPanics(t, "empty name", func() { New(Config[int]{Workers: 1, Work: func(int) {}}) })
	assertPanics(t, "zero workers", func() { New(Config[int]{Name: "x", Work: func(int) {}}) })
	assertPanics(t, "nil work", func() { New(Config[int]{Name: "x", Workers: 1}) })
	assertPanics(t, "double start", func() {
		s := New(Config[int]{Name: "x", Workers: 1, Work: func(int) {}})
		s.Start()
		defer s.Stop()
		s.Start()
	})
}

func TestGraphLifecycleAndStats(t *testing.T) {
	var order []string
	var mu sync.Mutex
	noteStop := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}

	// a feeds b: on Stop, a must fully drain before b closes so nothing
	// in flight is lost.
	var bDone atomic.Int64
	var b *Stage[int]
	b = New(Config[int]{Name: "b", Workers: 2, Work: func(int) {
		time.Sleep(time.Millisecond)
		bDone.Add(1)
	}})
	a := New(Config[int]{Name: "a", Workers: 2, Work: func(n int) {
		if err := b.Submit(n); err != nil {
			t.Errorf("downstream closed while upstream draining: %v", err)
		}
	}})

	g := NewGraph().Add(&stopNoter{Stage: a, note: noteStop}, &stopNoter{Stage: b, note: noteStop})
	g.Start()
	for i := 0; i < 50; i++ {
		if err := a.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	g.Stop()
	if got := bDone.Load(); got != 50 {
		t.Fatalf("items through both stages = %d, want 50", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("stop order = %v, want [a b]", order)
	}

	stats := g.Stats()
	if len(stats) != 2 || stats[0].Name != "a" || stats[1].Name != "b" {
		t.Fatalf("stats = %+v", stats)
	}
	for _, st := range stats {
		if !st.Closed || st.Busy != 0 || st.Depth != 0 {
			t.Fatalf("stage %s not drained: %+v", st.Name, st)
		}
	}
	if d := g.Depths(); d["a"] != 0 || d["b"] != 0 {
		t.Fatalf("Depths = %v", d)
	}
	if _, ok := g.Stage("a"); !ok {
		t.Fatal("Stage(a) not found")
	}
	if _, ok := g.Stage("zzz"); ok {
		t.Fatal("Stage(zzz) found")
	}
	if s := g.String(); !strings.Contains(s, "a:2 -> b:2") {
		t.Fatalf("String = %q", s)
	}

	// Stop is idempotent.
	g.Stop()
}

func TestGraphValidation(t *testing.T) {
	mk := func(name string) *Stage[int] {
		return New(Config[int]{Name: name, Workers: 1, Work: func(int) {}})
	}
	assertPanics(t, "duplicate name", func() { NewGraph().Add(mk("dup"), mk("dup")) })
	assertPanics(t, "double start", func() {
		g := NewGraph().Add(mk("s"))
		g.Start()
		defer g.Stop()
		g.Start()
	})
	assertPanics(t, "add after start", func() {
		g := NewGraph().Add(mk("s1"))
		g.Start()
		defer g.Stop()
		g.Add(mk("s2"))
	})
}

// stopNoter wraps a stage to record Stop order.
type stopNoter struct {
	*Stage[int]
	note func(string)
}

func (n *stopNoter) Stop() {
	n.note(n.Name())
	n.Stage.Stop()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestStageSpareTracking(t *testing.T) {
	s := New(Config[chan struct{}]{Name: "test", Workers: 4, QueueCap: 16,
		Work: func(release chan struct{}) { <-release }})
	s.Start()
	defer s.Stop()

	if got := s.Spare(); got != 4 {
		t.Fatalf("initial Spare = %d, want 4", got)
	}
	releases := make([]chan struct{}, 3)
	for i := range releases {
		releases[i] = make(chan struct{})
		if err := s.Submit(releases[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.Busy() == 3 })
	if got := s.Spare(); got != 1 {
		t.Fatalf("Spare with 3 busy = %d, want 1", got)
	}
	for _, r := range releases {
		close(r)
	}
	waitFor(t, func() bool { return s.Spare() == 4 })
}

func TestStageStopWaitsForInFlight(t *testing.T) {
	var finished atomic.Bool
	started := make(chan struct{})
	s := New(Config[struct{}]{Name: "test", Workers: 1, QueueCap: 1, Work: func(struct{}) {
		close(started)
		time.Sleep(30 * time.Millisecond)
		finished.Store(true)
	}})
	s.Start()
	if err := s.Submit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	<-started
	s.Stop()
	if !finished.Load() {
		t.Fatal("Stop returned before in-flight work finished")
	}
}

func TestStageStopDrainsQueue(t *testing.T) {
	var n atomic.Int64
	s := New(Config[int]{Name: "test", Workers: 2, QueueCap: 64, Work: func(int) { n.Add(1) }})
	for i := 0; i < 50; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	s.Stop()
	if got := n.Load(); got != 50 {
		t.Fatalf("processed %d, want 50 (Stop must drain)", got)
	}
}

func TestStageBoundedConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	s := New(Config[struct{}]{Name: "test", Workers: 3, QueueCap: 128, Work: func(struct{}) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	}})
	s.Start()
	for i := 0; i < 60; i++ {
		if err := s.Submit(struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	s.Stop()
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds worker count 3", got)
	}
}

func TestStageProcessesAll(t *testing.T) {
	var sum atomic.Int64
	s := New(Config[int]{Name: "test", Workers: 4, QueueCap: 16, Work: func(v int) { sum.Add(int64(v)) }})
	s.Start()
	total := 0
	for i := 1; i <= 100; i++ {
		if err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
		total += i
	}
	s.Stop()
	if got := sum.Load(); got != int64(total) {
		t.Fatalf("sum = %d, want %d", got, total)
	}
	if got := s.Completed(); got != 100 {
		t.Fatalf("Completed = %d, want 100", got)
	}
}

func TestStageDoubleStartPanics(t *testing.T) {
	s := New(Config[int]{Name: "test", Workers: 1, QueueCap: 1, Work: func(int) {}})
	s.Start()
	defer s.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	s.Start()
}

func TestStageInvalidConfigPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero size":     func() { New(Config[int]{Name: "x", QueueCap: 1, Work: func(int) {}}) },
		"negative size": func() { New(Config[int]{Name: "x", Workers: -1, QueueCap: 1, Work: func(int) {}}) },
		"nil work":      func() { New(Config[int]{Name: "x", Workers: 1, QueueCap: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
