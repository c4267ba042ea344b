package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Event is a handle to a scheduled callback, returned by Engine.Schedule
// and Engine.At. It is a small value: copy it freely. The zero Event is
// inert.
//
// Handles are generation-checked: once the event fires, is canceled, or
// its pooled slot is recycled, every outstanding handle becomes inert —
// Cancel on a stale handle is a no-op, and a stale handle can never
// touch (much less fire) an event that now occupies the recycled slot.
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

// msgSeqBits is the width of the per-channel sequence field in a
// message key (see eqEnt): 2^40 messages per channel. The channel id
// takes the bits above it but the top one, which marks event keys:
// 2^23 channels per Group (or standalone engine).
const msgSeqBits = 40

// ErrStalled is wrapped by the error Run returns when the event queue
// drains while non-daemon processes are still blocked (the simulation
// deadlocked); the error names them (see stalled).
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
	failure    error
	deadEvents int    // canceled events still sitting in the queue
	executed   uint64 // events + messages executed
	nextChanID uint64 // chan ids for standalone (group-less) engines

	// runKey is the key of the item running at now, or ^0 between
	// windows, when everything at now has run (see Passed).
	runKey uint64

	// tail is the latest time of a message key Chan.Reserve took on
	// this engine, sent or not, and elided counts the reserved keys not
	// (yet) sent. A drained run's clock ends at tail if that is later
	// than its last item: the message that was never sent would have
	// been that item.
	tail   Time
	elided uint64

	// horizon is the running window's exclusive bound (-1: none). A
	// serial stretch's cross-shard Chan.Send lowers it when the message
	// lands before the destination's head (see Group.stretch).
	horizon Time

	// live holds the unfinished non-daemon processes, in no particular
	// order (see dropLive), for the stall report.
	live []*Proc

	// stage holds cross-shard messages generated during this engine's
	// window, batched per destination shard; the group barrier hands each
	// non-empty slice to its destination in one operation (see
	// Group.flush). nil for standalone engines.
	stage [][]eqEnt

	// roundHook, when set, fires between work items every hookEvery
	// executed items with the current safe watermark (see SetRoundHook).
	// A single-shard engine installs it for good; in a multi-shard group
	// it is set only while a serial stretch runs, where it reports the
	// group-wide watermark instead (Group.SetRoundHook).
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
	e.seq++
	return e.AtKey(t, e.seq, fn)
}

// Reserve takes the next schedule sequence number without scheduling
// anything. An event that AtKey later schedules with it runs where one
// that At scheduled now would have, and every At in between keeps the
// number it would have had.
//
//tgvet:noalloc
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq
}

// AtKey arranges for fn to run at absolute time t (clamped to now) with
// seq, a sequence number taken earlier by Reserve, as its tie-break
// among events at t. Each reserved number may be scheduled once.
//
//tgvet:noalloc
func (e *Engine) AtKey(t Time, seq uint64, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	s := e.pool.get(e)
	s.fn = fn
	e.queue.push(eqEnt{at: t, key: eventKey | seq, slot: s})
	return Event{slot: s, gen: s.gen}
}

// Passed reports whether an event at t with sequence number seq would
// already have run: t is before now, or at now and its key orders at or
// before the running item's. Between windows, and so after RunUntil
// returns, everything at now has run. A sender that reserves a key and
// schedules the event only on demand asks Passed where it would
// otherwise have waited for the event.
//
//tgvet:noalloc
func (e *Engine) Passed(t Time, seq uint64) bool { return e.passed(t, eventKey|seq) }

// passed reports whether a queue item at t with key, event or message,
// would already have run (see Passed).
//
//tgvet:noalloc
func (e *Engine) passed(t Time, key uint64) bool {
	return t < e.now || t == e.now && key <= e.runKey
}

// idle reports whether nothing is left to run after now: no live queued
// item, and no reserved message (Chan.Reserve) due later.
func (e *Engine) idle() bool { return e.Pending() == 0 && e.tail <= e.now }

// Pending reports the number of live queued events and undelivered
// messages. Canceled events are not counted.
//
//tgvet:noalloc
func (e *Engine) Pending() int { return e.queue.len() - e.deadEvents }

// dropLive removes a finished non-daemon process from e.live by moving
// the last entry into its place.
func (e *Engine) dropLive(p *Proc) {
	n := len(e.live) - 1
	e.live[n].live, e.live[p.live] = p.live, e.live[n]
	e.live[n], e.live = nil, e.live[:n]
}

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
// early on a recorded failure. The horizon is kept in e.horizon, where a
// serial stretch's Chan.Send can lower it mid-window. It returns the
// time of the live head it stopped at, ok false when the queue is empty,
// so a serial stretch need not peek again. It records each item's key in
// runKey as the item runs, and ^0 when it returns (see Passed).
func (e *Engine) runWindow(horizon, deadline Time) (Time, bool) {
	e.horizon = horizon
	for {
		ent, ok := e.peekEvent()
		if !ok {
			e.runKey = ^uint64(0)
			return 0, false
		}
		t := ent.at
		if e.failure != nil ||
			(e.horizon >= 0 && t >= e.horizon) || (deadline >= 0 && t > deadline) {
			e.runKey = ^uint64(0)
			return t, true
		}
		if t < e.now {
			// A message flushed into this shard's past means the group
			// scheduler's safe-window bound was wrong. Fail loudly: silently
			// rewinding the clock corrupts every model invariant.
			panic(fmt.Sprintf("sim: causality violation on shard %d: work at t=%d behind now=%d", e.shard, t, e.now))
		}
		e.now = t
		e.runKey = ent.key
		e.executed++
		// The one place the ring advances: to the time now takes.
		e.deadEvents -= e.queue.advance(t, &e.pool)
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

// Run executes events until the queue drains or a process panics. It
// returns nil on a clean drain with no blocked non-daemon processes,
// ErrStalled if such processes remain blocked (deadlock), or an error
// describing a process panic. If the engine belongs to a multi-shard
// Group, Run drives the whole group.
func (e *Engine) Run() error { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= deadline (deadline < 0 means
// no deadline). On return without error the clock equals the deadline if
// one was given, otherwise the time of the last event, or of the latest
// reserved message (Chan.Reserve) if that is later: a drained run ends
// where it would have if every reserved message had been sent. If the
// engine belongs to a multi-shard Group, RunUntil drives the whole
// group.
func (e *Engine) RunUntil(deadline Time) error {
	if e.group != nil && len(e.group.engines) > 1 {
		return e.group.RunUntil(deadline)
	}
	e.runWindow(-1, deadline)
	if e.failure != nil {
		return e.failure
	}
	if deadline < 0 {
		e.now = max(e.now, e.tail)
	} else {
		e.now = max(e.now, deadline)
		if !e.idle() {
			return nil // stopped at the deadline, not drained
		}
	}
	return stalled(e)
}

// stalled reports the engines' unfinished non-daemon processes, which a
// drained queue leaves blocked, as ErrStalled: each one's name, shard and
// park time, earliest first. It is nil if none is.
func stalled(engines ...*Engine) error {
	var ps []*Proc
	for _, e := range engines {
		ps = append(ps, e.live...)
	}
	if len(ps) == 0 {
		return nil
	}
	slices.SortStableFunc(ps, func(a, b *Proc) int { return cmp.Compare(a.parkedAt, b.parkedAt) })
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = fmt.Sprintf("%q on shard %d parked at %dns", p.name, p.eng.shard, int64(p.parkedAt))
	}
	return fmt.Errorf("%w (%d blocked: %s)", ErrStalled, len(ps), strings.Join(names, ", "))
}

// fail records a process panic, naming the process and its shard; the
// engine loop notices it and aborts.
func (e *Engine) fail(name string, v interface{}) {
	if e.failure == nil {
		e.failure = fmt.Errorf("sim: process %q on shard %d panicked: %v", name, e.shard, v)
	}
}
