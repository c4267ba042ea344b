package sim

// Completion is a one-shot event that processes can block on. It models
// hardware hand-shakes such as "this read reply has arrived" or "all
// outstanding writes are acknowledged".
//
// The zero value is an incomplete Completion bound to no engine; use
// NewCompletion.
type Completion struct {
	eng     *Engine
	done    bool
	waiters []*Proc
}

// NewCompletion returns an incomplete completion on e.
func NewCompletion(e *Engine) *Completion { return &Completion{eng: e} }

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.done }

// Complete marks the completion done and wakes every waiter (in FIFO
// order, at the current instant). Completing twice is a no-op.
func (c *Completion) Complete() {
	if c.done {
		return
	}
	c.done = true
	for _, w := range c.waiters {
		c.eng.Schedule(0, w.wakeFn)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0] // keep the array for the next use
}

// Reset makes a completed Completion incomplete again, for reuse by a
// new wait. Its waiter array is kept, so a reused Completion waits
// without allocating.
func (c *Completion) Reset() { c.done = false }

// Wait blocks p until the completion is done. If it is already done, Wait
// returns immediately without yielding.
func (c *Completion) Wait(p *Proc) {
	if c.done {
		return
	}
	c.eng.checkSameShard(p)
	c.waiters = append(c.waiters, p)
	p.park()
}

// Future is a Completion that also carries a value of type T, such as the
// data word of a remote read reply.
type Future[T any] struct {
	c   Completion
	val T
}

// NewFuture returns an unresolved future on e.
func NewFuture[T any](e *Engine) *Future[T] { return &Future[T]{c: Completion{eng: e}} }

// Resolve stores v and wakes all waiters. Resolving twice is a no-op (the
// first value wins).
func (f *Future[T]) Resolve(v T) {
	if f.c.done {
		return
	}
	f.val = v
	f.c.Complete()
}

// Wait blocks p until the future resolves, then returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	f.c.Wait(p)
	return f.val
}

// Reset makes a resolved future unresolved again, for reuse by a new
// request (see Completion.Reset).
func (f *Future[T]) Reset() { f.c.done, f.val = false, *new(T) }
