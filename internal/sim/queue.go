package sim

import "slices"

// Queue is an unbounded FIFO of T, a process's mailbox (the message
// layer's per-node receive queues). Put never blocks; Get blocks while
// the queue is empty. Waiters are released in FIFO order.
type Queue[T any] struct {
	eng     *Engine
	items   []T
	getters []*Proc
}

// NewQueue returns an empty queue on e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// Put appends v and wakes the oldest waiting getter, if any. p, the
// calling process, must run on the queue's shard.
func (q *Queue[T]) Put(p *Proc, v T) {
	q.eng.checkSameShard(p)
	q.items = append(q.items, v)
	wakeFirst(q.eng, &q.getters)
}

// wakeFirst wakes the oldest process in the waiter FIFO ws, if any. The
// FIFO shifts within its array, so a warmed waiter list never allocates.
func wakeFirst(e *Engine, ws *[]*Proc) {
	if len(*ws) > 0 {
		e.Schedule(0, (*ws)[0].wakeFn)
		*ws = slices.Delete(*ws, 0, 1)
	}
}

// Get removes and returns the head item, blocking p while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	q.eng.checkSameShard(p)
	for len(q.items) == 0 {
		q.getters = append(q.getters, p)
		p.park()
	}
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	return v
}

// Semaphore is a counting semaphore for processes; it models credit-based
// resources such as link flow-control credits and bus slots.
type Semaphore struct {
	eng     *Engine
	count   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(e *Engine, count int) *Semaphore {
	return &Semaphore{eng: e, count: count}
}

// Acquire takes one unit, blocking p until a unit is available.
func (s *Semaphore) Acquire(p *Proc) {
	s.eng.checkSameShard(p)
	for s.count == 0 {
		s.waiters = append(s.waiters, p)
		p.park()
	}
	s.count--
}

// Release returns one unit and wakes the first waiter, if any. It is safe
// to call from event context.
func (s *Semaphore) Release() {
	s.count++
	wakeFirst(s.eng, &s.waiters)
}

// Mutex is a binary lock for processes, used to serialize access to
// model-level shared resources (e.g. a bus arbiter).
type Mutex struct{ sem *Semaphore }

// NewMutex returns an unlocked mutex.
func NewMutex(e *Engine) *Mutex { return &Mutex{sem: NewSemaphore(e, 1)} }

// Lock acquires the mutex, blocking p until it is free.
func (m *Mutex) Lock(p *Proc) { m.sem.Acquire(p) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.sem.Release() }
