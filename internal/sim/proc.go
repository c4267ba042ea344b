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
	eng      *Engine
	name     string
	resume   func() (struct{}, bool) // engine -> proc: run until the next park or return
	yield    func(struct{}) bool     // proc -> engine: park; set when the body starts
	wakeFn   func()                  // prebound p.wake: one closure per process, not per wakeup
	parkedAt Time                    // when the process last parked (the stall report)
	live     int                     // index in eng.live while a non-daemon process runs
	done     bool
}

// Spawn starts fn as a new process at the current simulated time.
// The engine's Run reports ErrStalled if any non-daemon process is still
// blocked when the event queue drains.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon starts a process whose permanent blocking does not count as a
// stall — use it for server loops that park on empty queues forever once
// the workload finishes.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

// spawn builds the process and its coroutine, and schedules its first
// wake. The coroutine ends with the body, so a finished process leaves
// no goroutine behind.
func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{eng: e, name: name}
	p.wakeFn = p.wake
	if !daemon {
		p.live = len(e.live)
		e.live = append(e.live, p)
	}
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		returned := false
		defer func() {
			if r := recover(); r != nil {
				e.fail(p.name, r)
			} else if !returned {
				// runtime.Goexit (t.FailNow, say): iter.Pull re-raises it
				// in the goroutine that resumed the process, which may be
				// a round worker whose window it cuts short. Record it so
				// the run reports the process instead of ending quietly.
				e.fail(p.name, "runtime.Goexit in process body")
			}
			p.done = true
			if !daemon {
				e.dropLive(p)
			}
		}()
		fn(p)
		returned = true
	})
	e.Schedule(0, p.wakeFn)
	return p
}

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
	p.resume()
}

// park returns control to the engine loop until the next wake. It must be
// called from the process's own body.
func (p *Proc) park() {
	p.parkedAt = p.eng.now
	p.yield(struct{}{})
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

// Panicf aborts the simulation with a formatted process error.
func (p *Proc) Panicf(format string, args ...interface{}) {
	panic(fmt.Sprintf(format, args...))
}
