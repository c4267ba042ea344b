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
// operations. Rounds that execute little work skip the workers entirely
// and run their windows inline on the scheduler goroutine, so
// fine-grained phases do not pay a barrier hand-off per round.
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

	// Per-round scratch, reused across rounds to keep the barrier loop
	// allocation-free.
	next     []Time
	runnable []window

	// critPath accumulates, over all barrier rounds, the largest number
	// of work items any single shard executed in that round: the length
	// of the round-structured critical path. Executed()/CritPath() is the
	// speedup an ideal machine (one core per shard, free barriers) would
	// get from this decomposition — a hardware-independent measure of the
	// parallelism the shard layout exposes.
	critPath uint64

	// roundHook, when set, fires at every barrier boundary — after the
	// flush, with no shard executing — with safe = the round's global
	// lower bound on remaining work (see SetRoundHook).
	roundHook func(safe Time)

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
// between back-to-back heavy rounds, short enough that a stretch of
// light inline rounds does not keep a core spinning.
const (
	spinYield = 32
	spinPark  = 1 << 12
)

// infTime is an effectively infinite timestamp (far beyond any workload,
// still safe to add channel delays to without overflow).
const infTime = Time(1) << 60

// seqRoundWork is the adaptive-round threshold: when the previous round's
// heaviest shard executed fewer work items than this, the next round runs
// its windows inline on the scheduler goroutine instead of releasing the
// round workers. Even with workers already spinning, a hand-off costs
// cache-line transfers both ways and often a wake-up; a round this light
// finishes faster than that, and fine-grained phases (lockstep barriers,
// drain tails) hit this continuously. Releasing the workers for every
// round instead roughly halved 2-shard torus-rpc throughput (EXPERIMENTS.md,
// "Persistent round workers").
const seqRoundWork = 64

// NewGroup returns a group of `shards` engines. Shard i's random source
// is seeded with seed+i; NewGroup(seed, 1) is equivalent to
// NewEngine(seed) driven sequentially.
func NewGroup(seed int64, shards int) *Group {
	if shards < 1 {
		shards = 1
	}
	g := &Group{
		engines: make([]*Engine, shards),
	}
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
// events, strictly before safe again). In a multi-shard group the hook
// fires at each barrier boundary with the round's global next-work
// bound; in a single-shard group it fires between work items every
// `every` executed items with the engine's current time. Either way the
// hook runs with no shard executing, so it may drain trace windows,
// run online checkers, or checkpoint. The cadence is a deterministic
// function of the run, never of host scheduling. Pass fn == nil to
// remove the hook.
func (g *Group) SetRoundHook(every uint64, fn func(safe Time)) {
	if len(g.engines) == 1 {
		g.engines[0].SetRoundHook(every, fn)
		return
	}
	g.roundHook = fn
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

// CritPath reports the accumulated critical-path length in work items
// (see the field doc). For a single-shard group it equals Executed().
func (g *Group) CritPath() uint64 {
	if len(g.engines) == 1 {
		return g.engines[0].executed
	}
	return g.critPath
}

// Stop halts every shard; Run returns at the end of the current round.
func (g *Group) Stop() {
	for _, e := range g.engines {
		e.stopped = true
	}
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
	for _, e := range g.engines {
		e.stopped = false
	}
	defer g.stopWorkers()
	if g.distDirty || g.dist == nil {
		g.rebuildDist()
	}
	if g.next == nil {
		g.next = make([]Time, len(g.engines))
	}
	next := g.next
	// Assume a light first round; the spawn decision self-corrects after
	// one round either way.
	var lastRoundMax uint64
	for {
		g.flush()
		if err := g.failureOrStopped(); err != nil || g.anyStopped() {
			return err
		}
		// Global lower bound on remaining work.
		var globalNext Time
		haveWork := false
		for i, e := range g.engines {
			t, ok := e.nextTime()
			if !ok {
				next[i] = -1
				continue
			}
			next[i] = t
			if !haveWork || t < globalNext {
				globalNext = t
			}
			haveWork = true
		}
		if !haveWork || (deadline >= 0 && globalNext > deadline) {
			break
		}
		if g.roundHook != nil {
			// Barrier boundary: staged messages are flushed, no shard is
			// executing, and every shard's next work is >= globalNext —
			// so every recorded event with timestamp < globalNext is
			// final. This is where the trace pipeline drains windows and
			// takes checkpoints.
			g.roundHook(globalNext)
		}
		// Per-shard safe horizon from incoming channel lookahead.
		runnable := g.runnable[:0]
		for i, e := range g.engines {
			if next[i] < 0 {
				continue // nothing queued; cross-shard sends arrive at a barrier
			}
			cap := g.horizon(i, next)
			if cap >= 0 && next[i] >= cap {
				continue // window is empty this round
			}
			if deadline >= 0 && next[i] > deadline {
				continue
			}
			runnable = append(runnable, window{e: e, cap: cap})
		}
		g.runnable = runnable[:0]
		if len(runnable) == 0 {
			break // nothing runnable below the deadline
		}
		for i := range runnable {
			runnable[i].execBefore = runnable[i].e.executed
		}
		if lastRoundMax < seqRoundWork || len(runnable) == 1 {
			// Light round (or only one shard has work): run every window
			// inline. Shards still execute in disjoint windows separated by
			// the same barrier math, so the order within each shard — and
			// therefore the trace — is identical to the parallel schedule.
			for _, w := range runnable {
				g.runShielded(w.e, w.cap, deadline)
			}
		} else {
			g.runParallel(runnable, deadline)
		}
		var maxDelta uint64
		for _, w := range runnable {
			if d := w.e.executed - w.execBefore; d > maxDelta {
				maxDelta = d
			}
		}
		g.critPath += maxDelta
		lastRoundMax = maxDelta
	}
	if err := g.failureOrStopped(); err != nil || g.anyStopped() {
		return err
	}
	// Synchronize clocks: to the deadline if one was given, otherwise to
	// the group-wide time of the last executed work.
	sync := g.Now()
	if deadline >= 0 {
		sync = deadline
	}
	for _, e := range g.engines {
		if e.now < sync {
			e.now = sync
		}
	}
	if deadline >= 0 && g.Pending() > 0 {
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

// window pairs a shard with its safe horizon for one round.
type window struct {
	e          *Engine
	cap        Time
	execBefore uint64
}

// horizon computes shard i's safe cap for this round: the earliest time
// any other shard's queued work could cause a message to arrive at i,
// over any channel path — including paths relayed through currently idle
// shards (an idle shard reacts to what it receives, so its onward sends
// are bounded by the instigator's time plus the path delay), and round
// trips that come back to i itself. -1 means unbounded.
func (g *Group) horizon(i int, next []Time) Time {
	cap := infTime
	for j := range g.engines {
		if next[j] < 0 {
			continue // truly idle: nothing queued anywhere to react to
		}
		if d := g.dist[j][i]; next[j]+d < cap {
			cap = next[j] + d
		}
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

// failureOrStopped reports the lowest-shard failure, if any.
func (g *Group) failureOrStopped() error {
	for _, e := range g.engines {
		if e.failure != nil {
			return e.failure
		}
	}
	return nil
}

func (g *Group) anyStopped() bool {
	for _, e := range g.engines {
		if e.stopped {
			return true
		}
	}
	return false
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

// MinDelay reports the channel's lookahead.
func (ch *Chan) MinDelay() Time { return ch.minDelay }

// Send schedules fn to run on the destination engine delay nanoseconds
// after the source engine's current time (clamped up to the channel's
// minimum delay). It must be called from the source engine's context —
// an event, message, or process running on it — or during build.
//
// Same-shard sends go straight into the destination queue;
// cross-shard sends are staged in the source engine's per-destination
// buffer and handed over at the next barrier. Neither path allocates in
// steady state.
//
//tgvet:noalloc
func (ch *Chan) Send(delay Time, fn func()) {
	if delay < ch.minDelay {
		delay = ch.minDelay
	}
	if ch.seq >= 1<<msgSeqBits {
		panic("sim: per-channel sequence overflowed the packed message key")
	}
	m := eqEnt{at: ch.src.now + delay, key: ch.id<<msgSeqBits | ch.seq, fn: fn}
	ch.seq++
	if ch.src.shard == ch.dst.shard || ch.src.group == nil {
		ch.dst.queue.push(m)
	} else {
		src := ch.src
		src.stage[ch.dst.shard] = append(src.stage[ch.dst.shard], m) //tgvet:allow noalloc(staging buffers grow to the high-water mark once and are reused every barrier)
	}
}
