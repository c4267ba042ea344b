package sim

import "slices"

// Queue is a FIFO of T with optional bounded capacity, usable as a model
// for hardware FIFOs (HIB write queues, link buffers, switch input queues).
// Put blocks the calling process while the queue is full; Get blocks while
// it is empty. Waiters are released in FIFO order.
type Queue[T any] struct {
	eng     *Engine
	items   []T
	cap     int // 0 = unbounded
	getters []*Proc
	putters []*Proc
}

// NewQueue returns a queue with the given capacity; capacity 0 means
// unbounded.
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{eng: e, cap: capacity}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Cap reports the queue capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// Full reports whether a Put would block.
func (q *Queue[T]) Full() bool { return q.cap > 0 && len(q.items) >= q.cap }

// Put appends v, blocking p while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	q.eng.checkSameShard(p)
	for q.Full() {
		q.putters = append(q.putters, p)
		p.park()
	}
	q.push(v)
}

// TryPut appends v without blocking; it reports whether the item was
// accepted. Use it from event (non-process) context.
func (q *Queue[T]) TryPut(v T) bool {
	if q.Full() {
		return false
	}
	q.push(v)
	return true
}

func (q *Queue[T]) push(v T) {
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
	return q.pop()
}

// TryGet removes the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	return q.pop(), true
}

func (q *Queue[T]) pop() T {
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	wakeFirst(q.eng, &q.putters)
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

// Count reports the semaphore's available units.
func (s *Semaphore) Count() int { return s.count }

// Acquire takes one unit, blocking p until a unit is available.
func (s *Semaphore) Acquire(p *Proc) {
	s.eng.checkSameShard(p)
	for s.count == 0 {
		s.waiters = append(s.waiters, p)
		p.park()
	}
	s.count--
}

// TryAcquire takes one unit without blocking; it reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
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
