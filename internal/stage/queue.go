package stage

import (
	"errors"
	"sync"
)

// errQueueClosed is returned by put and tryPut after close.
var errQueueClosed = errors.New("stage: queue closed")

// queue is a stage's bounded, synchronized FIFO ring buffer — the
// CherryPy synchronized queue the paper's listener blocks on. put
// blocks while the queue is full; get blocks while it is empty.
type queue[T any] struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	buf    []T
	head   int
	count  int
	closed bool

	enqueued int64
	dequeued int64
	maxLen   int
}

// newQueue returns a queue holding at most capacity items. Capacity
// must be positive.
func newQueue[T any](capacity int) *queue[T] {
	if capacity <= 0 {
		panic("stage: non-positive queue capacity")
	}
	q := &queue[T]{buf: make([]T, capacity)}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// put appends item, blocking while the queue is full. It returns
// errQueueClosed if the queue has been closed (including while blocked).
func (q *queue[T]) put(item T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == len(q.buf) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return errQueueClosed
	}
	q.putLocked(item)
	return nil
}

// tryPut appends item without blocking. It reports false if the queue
// is full and errQueueClosed if closed.
func (q *queue[T]) tryPut(item T) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, errQueueClosed
	}
	if q.count == len(q.buf) {
		return false, nil
	}
	q.putLocked(item)
	return true, nil
}

func (q *queue[T]) putLocked(item T) {
	tail := (q.head + q.count) % len(q.buf)
	q.buf[tail] = item
	q.count++
	q.enqueued++
	if q.count > q.maxLen {
		q.maxLen = q.count
	}
	q.notEmpty.Signal()
}

// get removes and returns the oldest item, blocking while the queue is
// empty. ok is false once the queue is closed and drained.
func (q *queue[T]) get() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.count == 0 {
		var zero T
		return zero, false
	}
	item = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release reference for GC
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.dequeued++
	q.notFull.Signal()
	return item, true
}

// close marks the queue closed. Blocked puts fail with errQueueClosed;
// blocked gets drain remaining items and then report ok=false. close is
// idempotent.
func (q *queue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// len reports the current number of queued items.
func (q *queue[T]) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// snapshot fills the queue fields of a stage Stats under one lock, so
// the counters are mutually consistent.
func (q *queue[T]) snapshot(st *Stats) {
	q.mu.Lock()
	defer q.mu.Unlock()
	st.Depth = q.count
	st.QueueCap = len(q.buf)
	st.MaxDepth = q.maxLen
	st.Enqueued = q.enqueued
	st.Dequeued = q.dequeued
	st.Closed = q.closed
}
