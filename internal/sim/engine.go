package sim

import (
	"errors"
	"fmt"
)

// Event is a handle to a scheduled callback, returned by Engine.Schedule
// and Engine.At. It is a small value: copy it freely. The zero Event is
// inert.
//
// Handles are generation-checked: once the event fires, is canceled, or
// its pooled slot is recycled, every outstanding handle becomes inert —
// Cancel and When on a stale handle are no-ops, and a stale handle can
// never touch (much less fire) an event that now occupies the recycled
// slot.
type Event struct {
	slot *eventSlot
	gen  uint32
}

// Live reports whether the handle still refers to a pending event: not
// yet fired, not canceled, not recycled.
//
//tgvet:noalloc
func (ev Event) Live() bool { return ev.slot != nil && ev.slot.gen == ev.gen }

// Cancel prevents the event's callback from running. Canceling an event
// that already fired, was already canceled, or whose slot was recycled is
// a no-op. Cancel bumps the slot's generation, so the handle (and any
// copy of it) is inert from this moment on. Canceled entries leave the
// queue lazily; when more than half the queue is dead weight the engine
// compacts it, so long-running simulations that cancel many timers
// (e.g. ARQ retransmission guards) do not leak.
//
//tgvet:noalloc
func (ev Event) Cancel() {
	s := ev.slot
	if s == nil || s.gen != ev.gen {
		return
	}
	s.gen++ // stale-proof every outstanding handle immediately
	s.canceled = true
	s.fn = nil
	s.eng.deadEvents++
	s.eng.maybeCompact()
}

// When reports the simulated time at which the event is scheduled to
// fire, or 0 if the handle is no longer live.
//
//tgvet:noalloc
func (ev Event) When() Time {
	if !ev.Live() {
		return 0
	}
	return ev.slot.when
}

// msgSeqBits is the width of the per-channel sequence field in a
// message key (see eqEnt): 2^40 messages per channel. The channel id
// takes the bits above it but the top one, which marks event keys:
// 2^23 channels per Group (or standalone engine).
const msgSeqBits = 40

// ErrStalled is returned by Run when the event queue drains while
// non-daemon processes are still blocked: the simulation deadlocked.
var ErrStalled = errors.New("sim: event queue empty but non-daemon processes still blocked")

// Engine is a deterministic discrete-event simulation engine — one shard
// of a Group.
//
// Create one with NewEngine (a standalone single shard) or via NewGroup,
// register processes with Spawn/SpawnDaemon, schedule raw events with
// Schedule, and drive it with Run or RunUntil. An Engine must only be
// used from its own event/process context once Run has been called; it is
// not safe for concurrent use from outside.
//
// The engine runs its work from one queue holding both raw events,
// ordered by (time, schedule sequence), and cross-entity Chan messages,
// ordered by (time, channel id, channel sequence). At equal timestamps
// messages run before events; the rule is the same whether the engine
// runs solo or as one shard of many, which keeps execution order
// identical across shard counts.
//
// The hot path is allocation-free in steady state: events are drawn from
// a per-engine slot pool (pool.go), the queue is a ring of time buckets
// that recycles its bucket arrays, over a far-tier heap (mqueue.go,
// equeue.go), and process wakeups reuse one prebound closure per process.
type Engine struct {
	now        Time
	queue      msgQueue
	pool       eventPool
	seq        uint64
	rng        *RNG
	alive      int // non-daemon procs not yet finished
	stopped    bool
	failure    error
	deadEvents int    // canceled events still sitting in the queue
	executed   uint64 // events + messages executed
	nextChanID uint64 // chan ids for standalone (group-less) engines

	// stage holds cross-shard messages generated during this engine's
	// window, batched per destination shard; the group barrier hands each
	// non-empty slice to its destination in one operation (see
	// Group.flush). nil for standalone engines.
	stage [][]eqEnt

	// roundHook, when set, fires between work items every hookEvery
	// executed items with the current safe watermark (see SetRoundHook).
	// Only single-shard execution installs it: in a multi-shard group the
	// watermark is a group-wide bound and the hook runs at the barrier
	// instead (Group.SetRoundHook).
	roundHook func(safe Time)
	hookEvery uint64
	hookCount uint64

	group *Group
	shard int
}

// NewEngine returns a standalone engine at time zero whose random source
// is seeded with seed, so runs are reproducible. The source is the
// simulator's own splitmix64 RNG (see rng.go), not math/rand: its
// sequence is a pure function of the seed, independent of platform and
// Go version — the determinism contract tgvet's globalrand analyzer
// enforces across the whole module.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(uint64(seed)), queue: newMsgQueue()}
}

// Now reports the current simulated time.
//
//tgvet:noalloc
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source: a per-shard
// stream seeded from the engine's own seed. All model randomness must
// come from here or from a Fork of it — never from global math/rand —
// so that traces stay bit-identical across shard counts and GOMAXPROCS.
func (e *Engine) Rand() *RNG { return e.rng }

// Shard reports the engine's shard index within its Group (0 for a
// standalone engine).
func (e *Engine) Shard() int { return e.shard }

// Group reports the Group the engine belongs to (nil for a standalone
// engine built with NewEngine).
func (e *Engine) Group() *Group { return e.group }

// Executed reports the number of events and messages the engine has run.
func (e *Engine) Executed() uint64 { return e.executed }

// checkSameShard panics when a process from another shard is about to
// block on (or be enqueued by) a primitive owned by e. Blocking
// primitives are shard-local state: a waiter is woken by its owner
// engine's event loop, so a cross-shard waiter would be resumed on the
// wrong thread, breaking both determinism and the hand-off discipline.
// Cross-shard interaction must go through a Chan instead.
func (e *Engine) checkSameShard(p *Proc) {
	if p.eng != e {
		panic(fmt.Sprintf("sim: process %q (shard %d) blocked on a primitive owned by shard %d; cross-shard blocking is illegal — route the interaction through a Chan",
			p.name, p.eng.shard, e.shard))
	}
}

// Schedule arranges for fn to run delay nanoseconds from now.
// A negative delay is treated as zero. Events scheduled for the same
// instant fire in scheduling order.
//
//tgvet:noalloc
func (e *Engine) Schedule(delay Time, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t (clamped to now).
//
//tgvet:noalloc
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	s := e.pool.get(e)
	s.when, s.fn = t, fn
	e.queue.push(eqEnt{at: t, key: eventKey | e.seq, slot: s})
	return Event{slot: s, gen: s.gen}
}

// Stop halts the engine: Run returns after the currently executing event
// completes. Pending events remain queued. Stopping one shard stops the
// whole Group at the end of the current round.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of live queued events and undelivered
// messages. Canceled events are not counted.
//
//tgvet:noalloc
func (e *Engine) Pending() int { return e.queue.len() - e.deadEvents }

// Alive reports the number of non-daemon processes that have not finished.
func (e *Engine) Alive() int { return e.alive }

// maybeCompact rebuilds the queue without canceled events once they
// outnumber the live entries (and are numerous enough to matter).
//
//tgvet:noalloc
func (e *Engine) maybeCompact() {
	if e.deadEvents < 64 || e.deadEvents*2 <= e.queue.len() {
		return
	}
	e.queue.compact(&e.pool)
	e.deadEvents = 0
}

// peekEvent discards canceled events at the head of the queue and
// returns the next live entry, event or message.
//
//tgvet:noalloc
func (e *Engine) peekEvent() (eqEnt, bool) {
	for {
		ent, ok := e.queue.peek()
		if !ok || ent.slot == nil || !ent.slot.canceled {
			return ent, ok
		}
		e.queue.pop() // never moves the ring: see msgQueue
		e.deadEvents--
		e.pool.put(ent.slot)
	}
}

// nextTime reports the timestamp of the engine's earliest pending work.
//
//tgvet:noalloc
func (e *Engine) nextTime() (Time, bool) {
	ent, ok := e.peekEvent()
	return ent.at, ok
}

// runWindow executes all work with timestamp < horizon (horizon < 0 means
// unbounded) and <= deadline (deadline < 0 means unbounded), in queue
// order: messages before events scheduled for the same instant. It stops
// early on Stop or a recorded failure.
func (e *Engine) runWindow(horizon, deadline Time) {
	for !e.stopped && e.failure == nil {
		ent, ok := e.peekEvent()
		if !ok {
			return
		}
		t := ent.at
		if horizon >= 0 && t >= horizon {
			return
		}
		if deadline >= 0 && t > deadline {
			return
		}
		if t < e.now {
			// A message flushed into this shard's past means the group
			// scheduler's safe-window bound was wrong. Fail loudly: silently
			// rewinding the clock corrupts every model invariant.
			panic(fmt.Sprintf("sim: causality violation on shard %d: work at t=%d behind now=%d", e.shard, t, e.now))
		}
		e.now = t
		e.executed++
		// The one place the ring advances: to the time now takes.
		e.queue.advance(t)
		e.queue.pop()
		if ent.slot == nil {
			ent.fn()
		} else {
			// Recycle before firing: the callback may schedule new work
			// into the freed slot, which is exactly the steady-state
			// zero-allocation cycle. The generation bump in put makes
			// every outstanding handle to this event inert.
			fn := ent.slot.fn
			e.pool.put(ent.slot)
			fn()
		}
		if e.roundHook != nil {
			if e.hookCount++; e.hookCount >= e.hookEvery {
				e.hookCount = 0
				e.roundHook(e.now)
			}
		}
	}
}

// SetRoundHook installs a periodic watermark hook for single-shard
// execution: fn fires between work items, every `every` executed items,
// with safe = the engine's current time. Every event with timestamp
// strictly before safe is final — simulated time is monotone, so no
// later work can record into that past. The trace pipeline drains its
// windows from here. The count-based cadence is deterministic: the same
// run fires the hook at the same points regardless of host scheduling.
// Pass fn == nil to remove the hook (the hot loop then pays one nil
// check per item).
func (e *Engine) SetRoundHook(every uint64, fn func(safe Time)) {
	if every == 0 {
		every = 1
	}
	e.roundHook = fn
	e.hookEvery = every
	e.hookCount = 0
}

// Run executes events until the queue drains, Stop is called, or a process
// panics. It returns nil on a clean drain with no blocked non-daemon
// processes, ErrStalled if such processes remain blocked (deadlock), or an
// error describing a process panic. If the engine belongs to a multi-shard
// Group, Run drives the whole group.
func (e *Engine) Run() error { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= deadline (deadline < 0 means
// no deadline). On return without error the clock equals the deadline if
// one was given and events remained, otherwise the time of the last event.
// If the engine belongs to a multi-shard Group, RunUntil drives the whole
// group.
func (e *Engine) RunUntil(deadline Time) error {
	if e.group != nil && len(e.group.engines) > 1 {
		return e.group.RunUntil(deadline)
	}
	e.stopped = false
	e.runWindow(-1, deadline)
	if e.failure != nil {
		return e.failure
	}
	if e.stopped {
		return nil
	}
	if deadline >= 0 {
		if e.now < deadline {
			e.now = deadline
		}
		if e.Pending() > 0 {
			return nil // stopped at the deadline, not drained
		}
	}
	if e.alive > 0 {
		return fmt.Errorf("%w (%d blocked)", ErrStalled, e.alive)
	}
	return nil
}

// fail records a process panic; the engine loop notices it and aborts.
func (e *Engine) fail(name string, v interface{}) {
	if e.failure == nil {
		e.failure = fmt.Errorf("sim: process %q panicked: %v", name, v)
	}
}
