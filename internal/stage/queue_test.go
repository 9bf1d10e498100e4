package stage

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := newQueue[int](4)
	for i := 1; i <= 4; i++ {
		if err := q.put(i); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := 1; i <= 4; i++ {
		got, ok := q.get()
		if !ok || got != i {
			t.Fatalf("Get = %d,%v, want %d,true", got, ok, i)
		}
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := newQueue[int](2)
	mustPut := func(v int) {
		t.Helper()
		if err := q.put(v); err != nil {
			t.Fatal(err)
		}
	}
	mustGet := func(want int) {
		t.Helper()
		got, ok := q.get()
		if !ok || got != want {
			t.Fatalf("Get = %d,%v, want %d,true", got, ok, want)
		}
	}
	mustPut(1)
	mustPut(2)
	mustGet(1)
	mustPut(3) // wraps
	mustGet(2)
	mustGet(3)
	if q.len() != 0 {
		t.Fatalf("Len = %d, want 0", q.len())
	}
}

func TestQueuePutBlocksWhenFull(t *testing.T) {
	q := newQueue[int](1)
	if err := q.put(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.put(2) }()
	select {
	case <-done:
		t.Fatal("Put returned while queue full")
	case <-time.After(20 * time.Millisecond):
	}
	if got, ok := q.get(); !ok || got != 1 {
		t.Fatalf("Get = %d,%v", got, ok)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked Put: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put never unblocked")
	}
}

func TestQueueGetBlocksWhenEmpty(t *testing.T) {
	q := newQueue[int](1)
	got := make(chan int, 1)
	go func() {
		v, _ := q.get()
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("Get returned on empty queue")
	case <-time.After(20 * time.Millisecond):
	}
	if err := q.put(42); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("Get = %d, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get never unblocked")
	}
}

func TestQueueTryPut(t *testing.T) {
	q := newQueue[int](1)
	ok, err := q.tryPut(1)
	if !ok || err != nil {
		t.Fatalf("TryPut = %v,%v, want true,nil", ok, err)
	}
	ok, err = q.tryPut(2)
	if ok || err != nil {
		t.Fatalf("TryPut on full = %v,%v, want false,nil", ok, err)
	}
	q.close()
	if _, err := q.tryPut(3); err != errQueueClosed {
		t.Fatalf("TryPut on closed = %v, want errQueueClosed", err)
	}
}

func TestQueueCloseUnblocksPut(t *testing.T) {
	q := newQueue[int](1)
	if err := q.put(1); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- q.put(2) }()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case err := <-errCh:
		if err != errQueueClosed {
			t.Fatalf("Put after close = %v, want errQueueClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put never unblocked by Close")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newQueue[int](4)
	_ = q.put(1)
	_ = q.put(2)
	q.close()
	if v, ok := q.get(); !ok || v != 1 {
		t.Fatalf("Get = %d,%v, want 1,true", v, ok)
	}
	if v, ok := q.get(); !ok || v != 2 {
		t.Fatalf("Get = %d,%v, want 2,true", v, ok)
	}
	if _, ok := q.get(); ok {
		t.Fatal("Get after drain should report !ok")
	}
}

func TestQueueCloseIdempotent(t *testing.T) {
	q := newQueue[int](1)
	q.close()
	q.close()
	if _, ok := q.get(); ok {
		t.Fatal("Get on closed empty queue should report !ok")
	}
}

func TestQueueStats(t *testing.T) {
	q := newQueue[int](4)
	_ = q.put(1)
	_ = q.put(2)
	_, _ = q.get()
	var s Stats
	q.snapshot(&s)
	if s.Enqueued != 2 || s.Dequeued != 1 || s.Depth != 1 || s.MaxDepth != 2 || s.QueueCap != 4 || s.Closed {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestQueueInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	newQueue[int](0)
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := newQueue[int](8)
	const producers, perP = 8, 200
	var consumed sync.Map
	var wg sync.WaitGroup

	var consumerWG sync.WaitGroup
	consumerWG.Add(4)
	for i := 0; i < 4; i++ {
		go func() {
			defer consumerWG.Done()
			for {
				v, ok := q.get()
				if !ok {
					return
				}
				consumed.Store(v, true)
			}
		}()
	}

	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				if err := q.put(base*perP + i); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	q.close()
	consumerWG.Wait()

	count := 0
	consumed.Range(func(_, _ any) bool { count++; return true })
	if count != producers*perP {
		t.Fatalf("consumed %d distinct items, want %d", count, producers*perP)
	}
}

// Property: for any sequence of puts below capacity, gets return the same
// sequence (FIFO order preserved).
func TestQueueFIFOProperty(t *testing.T) {
	f := func(items []int16) bool {
		if len(items) == 0 {
			return true
		}
		q := newQueue[int16](len(items))
		for _, it := range items {
			if err := q.put(it); err != nil {
				return false
			}
		}
		for _, want := range items {
			got, ok := q.get()
			if !ok || got != want {
				return false
			}
		}
		return q.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
