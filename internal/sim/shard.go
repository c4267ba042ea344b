// Sharded conservative parallel discrete-event simulation.
//
// A Group partitions the simulation into shards — one Engine each, with
// its own work queue and sequence counter. All cross-shard (and,
// by convention, all cross-entity) interactions travel through Chans:
// timestamped messages with a per-channel minimum delay. The group-wide
// minimum of those delays is the lookahead of classic conservative PDES:
// in each round every shard may safely execute all work strictly before
//
//	cap(shard) = min over incoming chans ch of next(src(ch)) + minDelay(ch)
//
// because any message a source generates in its own window carries a
// timestamp >= next(src) + minDelay. Shards run their windows
// concurrently, then meet at a barrier where staged messages are flushed
// into destination queues and the next round's caps are computed (a
// YAWNS/LBTS-style synchronization).
//
// Parallel rounds run on persistent round workers, one goroutine bound
// to each shard but the last, while the scheduler goroutine runs the
// round's last window itself. The barrier is a sense-reversing one with
// an epoch counter instead of a sense bit: the scheduler publishes each
// worker's window, bumps the epoch, runs its own window, and waits for
// an atomic pending count to reach zero. Waiting workers spin on the
// epoch for a short while, then park on a wake channel, so consecutive
// heavy rounds cost no OS-thread sleep or wake-up while a long stretch
// of light rounds keeps no core busy. Workers start at the first
// parallel round of a RunUntil and stop before it returns, on every
// path, so no goroutine outlives the call.
//
// Cross-shard sends are staged per (source, destination) shard pair and
// handed over as whole slices at the barrier, where each message drops
// into its time bucket — one hand-off per pair per round, mirroring how
// the paper's NIC-based barriers amortize synchronization over many
// operations.
//
// A round pays for its barrier only when it runs enough work. After a
// light round the group runs a serial stretch instead: the scheduler
// goroutine alone advances the shard whose queue head is earliest, up to
// the next-earliest head, and repeats, so every item runs in global time
// order and no round or barrier is needed. Cross-shard sends go straight
// into the destination queue; one that lands before the destination's
// head lowers that head and the sender's running horizon, so the sender
// stops before anything the message causes could reach back. After
// stretchWork items the stretch ends with one ordinary round, the probe:
// if it is heavy, parallel rounds resume. So narrow-lookahead phases run
// at one shard's pace with no barrier cost, and wide ones in parallel.
//
// Determinism does not depend on the schedule: messages are ordered by
// (time, channel id, channel sequence) — build-time identities — and at
// equal timestamps every engine runs messages before events. A group of
// one shard executes the exact same order with no goroutines, and an
// absorbed batch pops in the same order as the reference queue
// (mqueue_test.go), so the hand-off cannot reorder delivery.
package sim

import (
	"runtime"
	"sync/atomic"
)

// Group is a set of engines (shards) advancing one simulation together.
type Group struct {
	engines    []*Engine
	chans      []*Chan
	nextChanID uint64

	// dist[j][i] is the minimum accumulated channel delay over any path of
	// one or more channels from shard j to shard i (infTime when no path
	// exists; the diagonal is a round trip through other shards, not 0).
	// It is the transitive lookahead the safe-window bound needs: shard
	// j's queued work at next[j] cannot cause any effect on shard i before
	// next[j] + dist[j][i], even relayed through shards that are currently
	// idle. Rebuilt lazily after channel creation.
	dist      [][]Time
	distDirty bool

	// heads[i] is shard i's earliest queued work (infTime: none), read
	// at every barrier. A serial stretch keeps it current as it runs:
	// exact for every shard but the running one, which it refreshes
	// after each window. Allocated once, with runnable reused, to keep
	// the barrier loop allocation-free.
	heads    []Time
	runnable []window

	// serial is set while a serial stretch runs, and running is the
	// shard whose window it is in: Chan.Send then delivers cross-shard
	// messages directly (see stretch).
	serial  bool
	running int

	// critPath accumulates the length of the critical path in work
	// items: for each barrier round, the largest number of items any
	// single shard executed in it, and every item of a serial stretch.
	// Executed()/CritPath() is the speedup an ideal machine (one core per
	// shard, free barriers) would get from this schedule — a
	// hardware-independent measure of the parallelism it exposes.
	critPath uint64

	// roundHook, when set, fires at every barrier boundary — after the
	// flush, with no shard executing — with safe = the round's global
	// lower bound on remaining work, and within a serial stretch every
	// hookEvery items, through serialHook (see SetRoundHook). serialHook
	// is stretchWatermark, bound once in NewGroup because a method value
	// allocates; hookCount carries the item count across the stretch's
	// windows.
	roundHook  func(safe Time)
	serialHook func(now Time)
	hookEvery  uint64
	hookCount  uint64

	// workers[i] runs shard i's window in parallel rounds; the scheduler
	// goroutine runs the round's last window. The slots are built once;
	// their goroutines run only while workersUp, from the first parallel
	// round of a RunUntil until it returns.
	workers   []roundWorker
	workersUp bool

	// bar is the round barrier, padded off the fields above: the
	// scheduler writes critPath and the round scratch every round, and
	// spinning workers must not see those writes as barrier traffic.
	bar roundBarrier
}

// cacheLinePad fills a cache line, so the words on either side of it
// never share one.
type cacheLinePad struct{ _ [64]byte }

// roundBarrier is the parallel rounds' sense-reversing barrier. The
// scheduler bumps epoch to release the workers into a round (or to stop
// them) and waits until pending, the number of released workers not yet
// done, reaches zero. Each word sits alone on its cache line: workers
// poll epoch while the scheduler polls pending.
type roundBarrier struct {
	_       cacheLinePad
	epoch   atomic.Uint64
	_       cacheLinePad
	pending atomic.Int64
	_       cacheLinePad
}

// roundWorker is one round worker's slot. The scheduler writes cap and
// deadline, then stores the round's epoch in task; the worker reads
// them only after it sees task equal the epoch it was released at, and
// the scheduler writes them again only after the worker's pending
// decrement.
type roundWorker struct {
	e             *Engine
	cap, deadline Time
	task          atomic.Uint64 // epoch of the worker's latest round, or stopTask
	parked        atomic.Bool   // the worker is blocked, or about to block, on wake
	wake          chan struct{} // one token per park; capacity 1
	exited        bool          // the goroutine unwound; set before its last pending decrement
	_             cacheLinePad
}

// stopTask in a worker's task word tells it to exit.
const stopTask = ^uint64(0)

// A barrier wait polls its word, handing the thread to other goroutines
// every spinYield polls so that GOMAXPROCS=1 still makes progress. A
// worker that has polled spinPark times without a new round parks on
// its wake channel: long enough to span the scheduler's barrier work
// between back-to-back heavy rounds, short enough that a serial stretch
// does not keep a core spinning.
const (
	spinYield = 32
	spinPark  = 1 << 12
)

// infTime is an effectively infinite timestamp (far beyond any workload,
// still safe to add channel delays to without overflow).
const infTime = Time(1) << 60

// seqRoundWork is the adaptive-round threshold: when a round's heaviest
// shard executed fewer work items than this, the group runs a serial
// stretch next instead of another round. Even with workers already
// spinning, a hand-off costs cache-line transfers both ways and often a
// wake-up; a round this light finishes faster than that, and
// fine-grained phases (request/reply round trips, lockstep barriers,
// drain tails) hit this continuously. Releasing the workers for every
// round instead roughly halved 2-shard torus-rpc throughput
// (EXPERIMENTS.md, "Persistent round workers"). 48 is 64 scaled by the
// three quarters of items per operation left once credits on
// same-engine links stopped being queue items (EXPERIMENTS.md, "Credits
// on demand"): a lower figure kept the same phases parallel.
const seqRoundWork = 48

// stretchWork is the item budget of one serial stretch: after it, the
// stretch ends with an ordinary round that probes whether the phase has
// turned heavy enough for parallel rounds. Long enough to amortize the
// probe, short enough that a heavy phase soon goes back to the workers
// (EXPERIMENTS.md, "Serial stretches").
const stretchWork = 1 << 14

// NewGroup returns a group of `shards` engines. Shard i's random source
// is seeded with seed+i; NewGroup(seed, 1) is equivalent to
// NewEngine(seed) driven sequentially.
func NewGroup(seed int64, shards int) *Group {
	if shards < 1 {
		shards = 1
	}
	g := &Group{
		engines: make([]*Engine, shards),
		heads:   make([]Time, shards),
	}
	g.serialHook = g.stretchWatermark
	for i := range g.engines {
		e := NewEngine(seed + int64(i))
		e.group = g
		e.shard = i
		e.stage = make([][]eqEnt, shards)
		g.engines[i] = e
	}
	return g
}

// SetRoundHook installs a safe-watermark hook: fn fires with a bound
// safe such that every already-recorded event with timestamp < safe is
// final (no shard will ever execute work, and therefore record trace
// events, strictly before safe again). In a single-shard group it fires
// between work items every `every` executed items with the engine's
// current time. A multi-shard group keeps the same cadence while a
// serial stretch runs, with safe = the earliest queued work of any
// shard, and fires once more at each barrier boundary with the round's
// global next-work bound. Either way the hook runs with no shard
// executing, so it may drain trace windows or run online checkers. The
// cadence is a deterministic function of the run, never
// of host scheduling. Pass fn == nil to remove the hook.
func (g *Group) SetRoundHook(every uint64, fn func(safe Time)) {
	if len(g.engines) == 1 {
		g.engines[0].SetRoundHook(every, fn)
		return
	}
	g.roundHook = fn
	g.hookEvery = max(every, 1)
	g.hookCount = 0
}

// Shards reports the number of engines in the group.
func (g *Group) Shards() int { return len(g.engines) }

// Shard returns engine i.
func (g *Group) Shard(i int) *Engine { return g.engines[i] }

// Now reports the latest current time across shards.
func (g *Group) Now() Time {
	var t Time
	for _, e := range g.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Pending reports live queued events plus undelivered messages (queued
// and staged cross-shard sends) across all shards.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.Pending()
		for _, batch := range e.stage {
			n += len(batch)
		}
	}
	return n
}

// Idle reports whether the group has nothing left to run after its
// clock: no live queued or staged work, and no reserved message
// (Chan.Reserve) due later than its shard's clock. After RunUntil
// returns at a deadline, Idle is what a drained run leaves.
func (g *Group) Idle() bool {
	for _, e := range g.engines {
		if !e.idle() {
			return false
		}
		for _, batch := range e.stage {
			if len(batch) > 0 {
				return false
			}
		}
	}
	return true
}

// Alive reports unfinished non-daemon processes across all shards.
func (g *Group) Alive() int {
	n := 0
	for _, e := range g.engines {
		n += len(e.live)
	}
	return n
}

// Executed reports events + messages executed across all shards.
func (g *Group) Executed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.executed
	}
	return n
}

// Elided reports the messages whose keys Chan.Reserve took and that were
// not (yet) sent, across all shards. Once a run has drained, each is an
// item the run would have executed had every credit been sent eagerly,
// so Executed()+Elided() is the same at every shard count.
func (g *Group) Elided() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.elided
	}
	return n
}

// CritPath reports the accumulated critical-path length in work items
// (see the field doc): a serial stretch adds every item it runs, a
// barrier round its busiest shard's items. For a single-shard group it
// equals Executed().
func (g *Group) CritPath() uint64 {
	if len(g.engines) == 1 {
		return g.engines[0].executed
	}
	return g.critPath
}

// Run drives the group until all shards drain (see Engine.Run).
func (g *Group) Run() error { return g.RunUntil(-1) }

// RunUntil drives the group, executing work with timestamps <= deadline
// (deadline < 0 means no deadline), with the same contract as
// Engine.RunUntil.
func (g *Group) RunUntil(deadline Time) error {
	if len(g.engines) == 1 {
		return g.engines[0].RunUntil(deadline)
	}
	defer g.stopWorkers()
	if g.distDirty || g.dist == nil {
		g.rebuildDist()
	}
	heads := g.heads
	// Start serial: a stretch costs nothing to enter, and its closing
	// probe round finds out whether the run needs parallel rounds.
	serial := true
	for {
		g.flush()
		if err := g.failure(); err != nil {
			return err
		}
		// Global lower bound on remaining work.
		globalNext := infTime
		for i, e := range g.engines {
			heads[i] = infTime
			if t, ok := e.nextTime(); ok {
				heads[i] = t
				globalNext = min(globalNext, t)
			}
		}
		if globalNext >= infTime || (deadline >= 0 && globalNext > deadline) {
			break
		}
		if g.roundHook != nil {
			// Barrier boundary: staged messages are flushed, no shard is
			// executing, and every shard's next work is >= globalNext —
			// so every recorded event with timestamp < globalNext is
			// final. This is where the trace pipeline drains windows.
			g.roundHook(globalNext)
		}
		if serial {
			g.stretch(deadline)
			serial = false // the next round is the probe
			continue
		}
		// Per-shard safe horizon from incoming channel lookahead.
		runnable := g.runnable[:0]
		for i, e := range g.engines {
			if heads[i] >= infTime {
				continue // nothing queued; cross-shard sends arrive at a barrier
			}
			cap := g.horizon(i)
			if cap >= 0 && heads[i] >= cap {
				continue // window is empty this round
			}
			if deadline >= 0 && heads[i] > deadline {
				continue
			}
			runnable = append(runnable, window{e: e, cap: cap, execBefore: e.executed})
		}
		g.runnable = runnable[:0]
		if len(runnable) == 0 {
			break // nothing runnable below the deadline
		}
		if len(runnable) > 1 {
			runnable = commonCap(runnable, heads)
		}
		if len(runnable) == 1 {
			g.runShielded(runnable[0].e, runnable[0].cap, deadline)
		} else {
			g.runParallel(runnable, deadline)
		}
		var maxDelta uint64
		for _, w := range runnable {
			maxDelta = max(maxDelta, w.e.executed-w.execBefore)
		}
		g.critPath += maxDelta
		serial = maxDelta < seqRoundWork
	}
	if err := g.failure(); err != nil {
		return err
	}
	// Synchronize clocks: to the deadline if one was given, otherwise to
	// the group-wide time of the last executed work, or of the latest
	// reserved message if that is later (see Engine.RunUntil).
	sync := g.Now()
	if deadline >= 0 {
		sync = deadline
	} else {
		for _, e := range g.engines {
			sync = max(sync, e.tail)
		}
	}
	for _, e := range g.engines {
		if e.now < sync {
			e.now = sync
		}
	}
	if deadline >= 0 && !g.Idle() {
		return nil // stopped at the deadline, not drained
	}
	return stalled(g.engines...)
}

// runParallel runs one round's windows in parallel: every window but
// the last on its shard's round worker, the last on this goroutine.
func (g *Group) runParallel(runnable []window, deadline Time) {
	if !g.workersUp {
		g.startWorkers()
	}
	par, last := runnable[:len(runnable)-1], runnable[len(runnable)-1]
	ep := g.bar.epoch.Load() + 1
	g.bar.pending.Store(int64(len(par)))
	for _, w := range par {
		wk := &g.workers[w.e.shard]
		wk.cap, wk.deadline = w.cap, deadline
		wk.task.Store(ep)
	}
	g.bar.epoch.Store(ep)
	for _, w := range par {
		g.unpark(&g.workers[w.e.shard])
	}
	g.runShielded(last.e, last.cap, deadline)
	g.awaitWorkers()
}

// startWorkers launches one round worker per shard but the last.
func (g *Group) startWorkers() {
	if g.workers == nil {
		g.workers = make([]roundWorker, len(g.engines)-1)
		for i := range g.workers {
			g.workers[i].e = g.engines[i]
			g.workers[i].wake = make(chan struct{}, 1)
		}
	}
	seen := g.bar.epoch.Load()
	for i := range g.workers {
		w := &g.workers[i]
		w.exited = false
		w.task.Store(0) // clear the last call's stopTask; epochs start above 0
		//tgvet:allow shardlocal(the round worker: it runs only its own shard's windows, each between two barrier epochs, so no two runners share state)
		go g.work(w, seen)
	}
	g.workersUp = true
}

// stopWorkers ends the round workers, if running, before RunUntil
// returns. It first waits out a round still in flight (runtime.Goexit
// can unwind the scheduler out of its own window), then hands every
// live worker the stop task and waits until each has exited. A worker
// that runtime.Goexit already unwound is not waited for.
func (g *Group) stopWorkers() {
	if !g.workersUp {
		return
	}
	g.awaitWorkers()
	live := 0
	for i := range g.workers {
		if w := &g.workers[i]; !w.exited {
			w.task.Store(stopTask)
			live++
		}
	}
	g.bar.pending.Store(int64(live))
	g.bar.epoch.Add(1)
	for i := range g.workers {
		g.unpark(&g.workers[i])
	}
	g.awaitWorkers()
	g.workersUp = false
}

// work is a round worker's loop: wait for the epoch to move, run the
// shard's window if the new round has one for it, report done, repeat
// until the stop task. A runtime.Goexit from the window (say, t.FailNow
// in a process) unwinds the goroutine; the deferred handler records it
// as the shard's failure, so the run ends at this barrier, and still
// reports the window done.
func (g *Group) work(w *roundWorker, seen uint64) {
	stopped := false
	defer func() {
		if !stopped {
			w.e.fail("event", "runtime.Goexit on a round worker")
		}
		w.exited = true
		g.bar.pending.Add(-1)
	}()
	for {
		seen = g.awaitEpoch(w, seen)
		switch w.task.Load() {
		case stopTask:
			stopped = true
			return
		case seen:
			g.runShielded(w.e, w.cap, w.deadline)
			g.bar.pending.Add(-1)
		}
	}
}

// awaitEpoch returns the barrier epoch once it differs from seen:
// polling first, then parked on w.wake. The park is a flag handshake
// with unpark that loses no wake-up: the worker sets parked before its
// last look at the epoch, and the scheduler bumps the epoch before it
// looks at parked, so at least one of them sees the other's write. A
// wake-up can be late: a scheduler descheduled between its look at
// parked and its claim can claim the worker's next park, after the
// worker has run the round by itself. So a wake-up only ends the park,
// and the loop looks at the epoch again.
func (g *Group) awaitEpoch(w *roundWorker, seen uint64) uint64 {
	for i := 1; ; i++ {
		if ep := g.bar.epoch.Load(); ep != seen {
			return ep
		}
		if i%spinYield == 0 {
			runtime.Gosched()
		}
		if i%spinPark == 0 {
			w.parked.Store(true)
			// Block unless the epoch has already moved and the
			// scheduler has not claimed the park (and sent a token).
			if g.bar.epoch.Load() == seen || !w.parked.CompareAndSwap(true, false) {
				<-w.wake
			}
		}
	}
}

// unpark wakes w if it is parked. Call it after bumping the epoch.
func (g *Group) unpark(w *roundWorker) {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// awaitWorkers polls until every released worker has reported done.
func (g *Group) awaitWorkers() {
	for i := 1; g.bar.pending.Load() != 0; i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// runShielded runs one shard's window, turning a panic into the shard's
// recorded failure.
func (g *Group) runShielded(e *Engine, cap, deadline Time) {
	defer func() {
		if r := recover(); r != nil {
			e.fail("event", r)
		}
	}()
	e.runWindow(cap, deadline)
}

// stretch runs a serial stretch on this goroutine: it repeatedly takes
// the shard whose queue head is earliest and runs its window up to and
// including the next-earliest head, until stretchWork items have run,
// no work is left at or before the deadline, or a shard stops or
// fails. heads must be current on entry.
//
// Every item therefore runs at or after every item before it, so a
// cross-shard message, which lands at least 1 ns after its send, can
// never land behind its destination's clock: Chan.Send pushes it
// straight into the destination queue. A message that lands before the
// destination's head makes that the new head, and the sender's window
// stops at it, so nothing the message causes can reach back into work
// the sender has already run. Each shard still runs its own queue in
// (at, key) order, so the trace is the one any round schedule gives.
//
// While the stretch runs, the round hook fires every hookEvery items
// (stretchWatermark). A panic escaping a window is recorded as the
// running shard's failure.
func (g *Group) stretch(deadline Time) {
	g.serial = true
	if g.roundHook != nil {
		for _, e := range g.engines {
			e.roundHook, e.hookEvery = g.serialHook, g.hookEvery
		}
	}
	defer func() {
		g.serial = false
		for _, e := range g.engines {
			e.roundHook = nil
		}
		if r := recover(); r != nil {
			g.engines[g.running].fail("event", r)
		}
	}()
	heads := g.heads
	var done uint64
	for done < stretchWork {
		run, first, second := -1, infTime, infTime
		for i, h := range heads {
			if h < first {
				run, first, second = i, h, first
			} else if h < second {
				second = h
			}
		}
		if run < 0 || (deadline >= 0 && first > deadline) {
			break
		}
		horizon := Time(-1)
		if second < infTime {
			horizon = second + 1
		}
		e := g.engines[run]
		g.running = run
		e.hookCount = g.hookCount
		before := e.executed
		next, ok := e.runWindow(horizon, deadline)
		g.hookCount = e.hookCount
		n := e.executed - before
		done += n
		g.critPath += n
		heads[run] = infTime
		if ok {
			heads[run] = next
		}
		if e.failure != nil {
			break
		}
	}
}

// stretchWatermark is the round hook's entry within a serial stretch:
// it fires the hook with safe = the earliest queued work of any shard,
// or the running shard's clock when nothing is queued. The running
// shard's own work starts at or after its clock, and every other
// shard's at or after its cached head, so no shard will run work before
// safe again.
func (g *Group) stretchWatermark(now Time) {
	safe := now
	if t, ok := g.engines[g.running].nextTime(); ok {
		safe = t
	}
	for i, h := range g.heads {
		if i != g.running {
			safe = min(safe, h)
		}
	}
	if g.roundHook != nil {
		g.roundHook(safe)
	}
}

// commonCap gives every window of a round with more than one runnable
// shard the lowest of their caps, YAWNS's global window, and drops the
// shards whose head is at or past it, so no worker is released for an
// empty window. The shard holding the global head keeps its window:
// every cap is at least the global head plus the smallest channel
// delay. Per-shard caps let two shards whose heads are out of phase run
// unequal windows round after round, each reaching a lookahead past
// the other's head, so the busier one sets every round's length; one
// cap brings both heads to it and the rounds back into phase.
//
//tgvet:noalloc
func commonCap(runnable []window, heads []Time) []window {
	common := Time(-1)
	for _, w := range runnable {
		if w.cap >= 0 && (common < 0 || w.cap < common) {
			common = w.cap
		}
	}
	if common < 0 {
		return runnable
	}
	n := 0
	for _, w := range runnable {
		if heads[w.e.shard] < common {
			w.cap = common
			runnable[n] = w
			n++
		}
	}
	return runnable[:n]
}

// window pairs a shard with its safe horizon for one round.
type window struct {
	e          *Engine
	cap        Time
	execBefore uint64
}

// horizon computes shard i's safe cap for this round from the shards'
// heads: the earliest time any shard's queued work could cause a message
// to arrive at i, over any channel path — including paths relayed
// through currently idle shards (an idle shard reacts to what it
// receives, so its onward sends are bounded by the instigator's time
// plus the path delay), and round trips that come back to i itself. -1
// means unbounded.
func (g *Group) horizon(i int) Time {
	cap := infTime
	for j, h := range g.heads {
		if h >= infTime {
			continue // truly idle: nothing queued anywhere to react to
		}
		cap = min(cap, h+g.dist[j][i])
	}
	if cap >= infTime {
		return -1
	}
	return cap
}

// rebuildDist recomputes the all-pairs minimum channel-path delay matrix
// (Floyd–Warshall over the shard graph; the diagonal starts at infTime
// so dist[i][i] is the shortest round trip, not zero).
func (g *Group) rebuildDist() {
	n := len(g.engines)
	d := make([][]Time, n)
	for i := range d {
		d[i] = make([]Time, n)
		for j := range d[i] {
			d[i][j] = infTime
		}
	}
	for _, ch := range g.chans {
		s, t := ch.src.shard, ch.dst.shard
		if s != t && ch.minDelay < d[s][t] {
			d[s][t] = ch.minDelay
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] >= infTime {
				continue
			}
			for j := 0; j < n; j++ {
				if v := d[i][k] + d[k][j]; v < d[i][j] {
					d[i][j] = v
				}
			}
		}
	}
	g.dist = d
	g.distDirty = false
}

// flush moves every staged cross-shard message into its destination
// queue — one slice absorb per (source, destination) shard pair. Called
// only between rounds, when no shard is executing. The staging buffers
// are retained and reused, so a warmed-up barrier allocates nothing.
//
//tgvet:noalloc
func (g *Group) flush() {
	for _, e := range g.engines {
		for d, batch := range e.stage {
			if len(batch) == 0 {
				continue
			}
			g.engines[d].queue.absorb(batch)
			clear(batch) // release callback closures
			e.stage[d] = batch[:0]
		}
	}
}

// failure reports the lowest-shard failure, if any.
func (g *Group) failure() error {
	for _, e := range g.engines {
		if e.failure != nil {
			return e.failure
		}
	}
	return nil
}

// Chan is a deterministic timestamped message channel between two
// engines. Its identity (id) and per-channel sequence numbers are fixed
// at build time, so delivery order — (time, id, seq) with messages
// running before same-instant events — is independent of the shard
// layout. minDelay is the channel's lookahead: Send clamps every delay
// up to it, and the group scheduler relies on it to bound safe windows.
type Chan struct {
	id       uint64
	src, dst *Engine
	minDelay Time
	seq      uint64
}

// NewChan creates a channel from src to dst with the given minimum
// delay (clamped up to 1ns: zero-latency cross-entity interaction would
// leave no lookahead). Both engines must belong to the same Group; a
// standalone engine may only channel to itself. Channels must be created
// during build, before the simulation runs, in a deterministic order.
func NewChan(src, dst *Engine, minDelay Time) *Chan {
	if minDelay < 1 {
		minDelay = 1
	}
	ch := &Chan{src: src, dst: dst, minDelay: minDelay}
	if g := src.group; g != nil {
		if dst.group != g {
			panic("sim: Chan endpoints belong to different groups")
		}
		ch.id = g.nextChanID
		g.nextChanID++
		g.chans = append(g.chans, ch)
		if src != dst {
			g.distDirty = true
		}
	} else {
		if src != dst {
			panic("sim: cross-engine Chan requires engines from one Group")
		}
		ch.id = src.nextChanID
		src.nextChanID++
	}
	// Message keys must stay below eventKey, or a message would lose its
	// place ahead of same-instant events.
	if ch.id >= 1<<(63-msgSeqBits) {
		panic("sim: too many channels for the packed message key")
	}
	return ch
}

// Send schedules fn to run on the destination engine delay nanoseconds
// after the source engine's current time (clamped up to the channel's
// minimum delay). It must be called from the source engine's context —
// an event, message, or process running on it — or during build.
//
// Same-shard sends go straight into the destination queue, and so do
// cross-shard sends made in a serial stretch; cross-shard sends made in
// a round are staged in the source engine's per-destination buffer and
// handed over at the next barrier. No path allocates in steady state.
//
//tgvet:noalloc
func (ch *Chan) Send(delay Time, fn func()) {
	at, key := ch.stamp(delay)
	src, dst := ch.src, ch.dst
	m := eqEnt{at: at, key: key, fn: fn}
	g := src.group
	switch {
	case src == dst:
		dst.queue.push(m)
	case g.serial:
		// A serial stretch delivers at once (see Group.stretch). The
		// destination's work at m.at reaches back no earlier than
		// m.at+1, so the sender runs on through m.at at most.
		dst.queue.push(m)
		if m.at < g.heads[dst.shard] {
			g.heads[dst.shard] = m.at
			if src.horizon < 0 || m.at < src.horizon-1 {
				src.horizon = m.at + 1
			}
		}
	default:
		src.stage[dst.shard] = append(src.stage[dst.shard], m) //tgvet:allow noalloc(staging buffers grow to the high-water mark once and are reused every barrier)
	}
}

// stamp takes the time and queue key of a message sent now with delay
// (clamped up to the channel's minimum delay).
//
//tgvet:noalloc
func (ch *Chan) stamp(delay Time) (Time, uint64) {
	if delay < ch.minDelay {
		delay = ch.minDelay
	}
	if ch.seq >= 1<<msgSeqBits {
		panic("sim: per-channel sequence overflowed the packed message key")
	}
	key := ch.id<<msgSeqBits | ch.seq
	ch.seq++
	return ch.src.now + delay, key
}

// Reserve takes the time and queue key a Send with delay would give a
// message now, without sending anything: SendKey sends the message
// later, only if something needs it to run, and every later Send keeps
// the key it would have had. A message that is never sent still counts
// where a run ends (Engine.RunUntil) and in Group.Elided. Only a
// channel whose two ends are one engine may reserve: the receiver half
// must be able to tell, from its own clock, whether the message has
// passed (Passed).
//
//tgvet:noalloc
func (ch *Chan) Reserve(delay Time) (Time, uint64) {
	if ch.src != ch.dst {
		panic("sim: Reserve on a Chan between two engines")
	}
	at, key := ch.stamp(delay)
	e := ch.src
	e.tail = max(e.tail, at)
	e.elided++
	return at, key
}

// SendKey sends fn as the message Reserve took at and key for. It runs
// exactly where Send at the reservation would have run it. Send each
// reserved key at most once, and only before it has Passed.
//
//tgvet:noalloc
func (ch *Chan) SendKey(at Time, key uint64, fn func()) {
	ch.dst.elided--
	ch.dst.queue.push(eqEnt{at: at, key: key, fn: fn})
}

// Passed reports whether the message Reserve took at and key for would
// already have run, as of the item running on the channel's engine (see
// Engine.Passed).
//
//tgvet:noalloc
func (ch *Chan) Passed(at Time, key uint64) bool { return ch.dst.passed(at, key) }
