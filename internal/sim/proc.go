//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a body run on a coroutine (iter.Pull)
// under the engine's strict hand-off discipline. Waking a process resumes
// its coroutine on whichever goroutine is running its shard's window —
// the engine's caller, or a round worker of a multi-shard Group — and
// that goroutine blocks until the process parks again or returns. The
// switch is a direct goroutine hand-off on the current thread, with no
// scheduler wake-up. At most one process (or the engine loop) of a shard
// executes at a time, so process code may freely touch its shard's
// simulation state without locks, and every run is deterministic.
//
// Process bodies receive their *Proc and may call the blocking primitives
// Sleep, Hold and the waiting methods on Future, Queue, Semaphore, etc.
// Those primitives must only be called from within the process's own body.
type Proc struct {
	eng    *Engine
	name   string
	co     *coro  // the coroutine running the body; another body's once done
	wakeFn func() // prebound p.wake: one closure per process, not per wakeup
	daemon bool
	done   bool
}

// coro is a process coroutine, reusable across process bodies. Its
// iter.Pull function loops: it runs the current process's body, and on a
// normal return parks itself on its engine's idle list until spawn hands
// it the next body, or the run's end stops it. A body that panics or
// calls runtime.Goexit ends the coroutine, which is never reused.
type coro struct {
	resume func() (struct{}, bool) // engine -> proc: run until the next park or return
	stop   func()                  // ends an idle coroutine's goroutine
	yield  func(struct{}) bool     // proc -> engine: park
	p      *Proc                   // the process whose body runs now
	fn     func(*Proc)             // its body
}

// Spawn starts fn as a new process at the current simulated time.
// The engine's Run reports ErrStalled if any non-daemon process is still
// blocked when the event queue drains.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon starts a process whose permanent blocking does not count as a
// stall — use it for server loops (HIB engines, switch ports) that park on
// empty queues forever once the workload finishes.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

// spawn builds a fresh Proc, so a finished one stays Done and its stale
// wakes stay inert, and runs it on an idle coroutine when one is parked,
// a new one otherwise.
func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{eng: e, name: name, daemon: daemon}
	p.wakeFn = p.wake
	if !daemon {
		e.alive++
	}
	if n := len(e.idle); n > 0 {
		p.co = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c := &coro{}
		c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for c.p.run(c.fn) {
				c.p, c.fn = nil, nil
				e.idle = append(e.idle, c)
				if !yield(struct{}{}) {
					return // stopped at the run's end
				}
			}
		})
		p.co = c
	}
	p.co.p, p.co.fn = p, fn
	e.Schedule(0, p.wakeFn)
	return p
}

// run runs fn, the process's body, to its end and reports whether it
// returned normally. A panic is recovered and recorded as the process's
// failure; runtime.Goexit is recorded, then unwinds the coroutine.
func (p *Proc) run(fn func(*Proc)) (returned bool) {
	defer func() {
		if !returned {
			if r := recover(); r != nil {
				p.eng.fail(p.name, r)
			} else {
				// runtime.Goexit (t.FailNow, say): iter.Pull re-raises it
				// in the goroutine that resumed the process, which may be
				// a round worker whose window it cuts short. Record it so
				// the run reports the process instead of ending quietly.
				p.eng.fail(p.name, "runtime.Goexit in process body")
			}
		}
		p.done = true
		if !p.daemon {
			p.eng.alive--
		}
	}()
	fn(p)
	return true
}

// releaseIdle ends every idle coroutine's goroutine. RunUntil calls it on
// its way out, so no goroutine outlives a run; the next run builds its
// coroutines afresh.
func (e *Engine) releaseIdle() {
	for i, c := range e.idle {
		e.idle[i] = nil
		c.stop()
	}
	e.idle = e.idle[:0]
}

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// wake transfers control from the engine loop to the process and returns
// when the process parks again or finishes. It runs as an event callback.
func (p *Proc) wake() {
	if p.done {
		return
	}
	p.co.resume()
}

// park returns control to the engine loop until the next wake. It must be
// called from the process's own body.
func (p *Proc) park() {
	p.co.yield(struct{}{})
}

// Sleep suspends the process for d nanoseconds of simulated time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Even a zero-length sleep yields: the process re-runs after all
		// events already scheduled for this instant.
		d = 0
	}
	p.eng.Schedule(d, p.wakeFn) //tgvet:allow eventdrop(a sleep timer always fires: the process parks until this wake and holds no cancel path)
	p.park()
}

// SleepUntil suspends the process until absolute simulated time t
// (returning immediately after a yield if t is not in the future).
func (p *Proc) SleepUntil(t Time) {
	p.eng.At(t, p.wakeFn) //tgvet:allow eventdrop(a sleep timer always fires: the process parks until this wake and holds no cancel path)
	p.park()
}

// Yield lets every event already scheduled for the current instant run
// before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Panicf aborts the simulation with a formatted process error.
func (p *Proc) Panicf(format string, args ...interface{}) {
	panic(fmt.Sprintf(format, args...))
}
