package sim

// Allocation-budget gates for the engine's hot path. The contract is
// zero allocations per event in steady state: once the slot pool, the
// event heap, the inbox, and the staging buffers have grown to the
// workload's high-water mark, Schedule → fire → recycle and Chan.Send →
// deliver must not touch the allocator. These gates are ratchets — they
// pin today's zero so a regression (a closure capture, interface boxing,
// a map in the hot path) fails CI rather than silently eroding the
// benchmark numbers.

import (
	"runtime"
	"testing"
)

// measureAllocs runs f under AllocsPerRun and fails the test if the
// steady-state budget (exactly zero) is exceeded.
func measureAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.2f allocs/run, want 0", name, avg)
	}
}

// TestScheduleFireRecycleAllocs gates the basic event cycle: schedule a
// batch onto a warmed engine, run it dry, repeat. Every event draws a
// pooled slot and returns it on fire.
func TestScheduleFireRecycleAllocs(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	fn := func() { fires++ }
	// Warm-up: grow the pool and heap to the batch's high-water mark.
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i%32), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "schedule/fire/recycle", func() {
		for i := 0; i < 256; i++ {
			e.Schedule(Time(i%32), fn)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if fires == 0 {
		t.Fatal("no events fired")
	}
}

// TestCancelRecycleAllocs gates the cancel path: canceled events leave
// the queue lazily and their slots recycle through the pool — including
// the bulk compaction sweep, which must reuse the heap's own storage.
func TestCancelRecycleAllocs(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	fn := func() { fires++ }
	evs := make([]Event, 256)
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i%32), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "cancel/recycle", func() {
		for i := range evs {
			evs[i] = e.Schedule(Time(i%32), fn)
		}
		// Cancel every other event: enough dead weight to trigger the
		// engine's compaction sweep (threshold 64) inside the gate.
		for i := 0; i < len(evs); i += 2 {
			evs[i].Cancel()
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChanSendSameShardAllocs gates the same-shard message path: Send
// pushes straight into the destination inbox heap.
func TestChanSendSameShardAllocs(t *testing.T) {
	e := NewEngine(1)
	ch := NewChan(e, e, 1)
	n := 0
	fn := func() { n++ }
	for i := 0; i < 1024; i++ {
		ch.Send(Time(1+i%16), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "chan send same-shard", func() {
		for i := 0; i < 256; i++ {
			ch.Send(Time(1+i%16), fn)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChanSendCrossShardAllocs gates the cross-shard path of a light
// phase end to end: a ping-pong between two shards over 1 ns channels
// runs in serial stretches, so every Send pushes straight into the other
// shard's queue, lowers its head and cuts the sender's window, in both
// directions. (TestGroupParallelRoundAllocs gates the staged path of
// parallel rounds.)
func TestChanSendCrossShardAllocs(t *testing.T) {
	g := NewGroup(1, 2)
	a, b := g.Shard(0), g.Shard(1)
	ab := NewChan(a, b, 1)
	ba := NewChan(b, a, 1)
	rounds := 0
	var ping, pong func()
	ping = func() {
		if rounds == 0 {
			return
		}
		rounds--
		ab.Send(1, pong)
	}
	pong = func() { ba.Send(1, ping) }
	// Warm-up: the queues, the slot pools and the group's round scratch
	// all reach steady-state capacity.
	rounds = 256
	ab.Send(1, pong)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "chan send cross-shard", func() {
		rounds = 64
		ab.Send(1, pong)
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGroupParallelRoundAllocs gates the round workers: a 2-shard run
// whose rounds run far more than seqRoundWork items per shard, and so go
// to the workers once the run's opening serial stretch has probed them
// heavy, must allocate exactly as much over ten Runs of 256 rounds as
// over ten of 64. Starting the workers costs a few allocations per
// RunUntil, O(shards); a round, with its staged cross-shard sends and
// their flush, costs none.
func TestGroupParallelRoundAllocs(t *testing.T) {
	const window = 100 // the lookahead each way, in ns: one round's width
	const lanes = 4    // tick chains per shard, each ticking every nanosecond
	g := NewGroup(1, 2)
	cross := []*Chan{
		NewChan(g.Shard(0), g.Shard(1), window),
		NewChan(g.Shard(1), g.Shard(0), window),
	}
	// A round runs lanes*window items on each shard; every 16th tick of
	// lane 0 also sends a message to the other shard.
	left := make([]Time, 2*lanes)
	ticks := make([]func(), 2*lanes)
	recv := func() {}
	for k := range ticks {
		e, lane := g.Shard(k/lanes), k%lanes
		ticks[k] = func() {
			if lane == 0 && left[k]%16 == 0 {
				cross[k/lanes].Send(window, recv)
			}
			if left[k]--; left[k] > 0 {
				e.Schedule(1, ticks[k])
			}
		}
	}
	run := func(rounds int) func() {
		return func() {
			for k, f := range ticks {
				left[k] = Time(rounds * window)
				g.Shard(k/lanes).Schedule(1, f)
			}
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Count allocations exactly, on one OS thread as
	// testing.AllocsPerRun does; its integer division by the runs would
	// let up to 9 allocations per batch pass unseen.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	batch := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			run(rounds)()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// Warm the slot pools, the queues' spare bucket arrays, the staging
	// buffers, the worker slots and the runtime's goroutine records: a
	// few of them still grow in the first ten runs.
	batch(256)
	batch(64)
	crit, epoch := g.CritPath(), g.bar.epoch.Load()
	short := batch(64)
	if g.CritPath()-crit < 10*64*window {
		t.Fatalf("critical path grew %d items over 10 runs of 64 rounds: rounds did not go parallel", g.CritPath()-crit)
	}
	// Each run's opening stretch takes stretchWork items, about 20 of its
	// rounds; the rest go to the workers.
	if n := g.bar.epoch.Load() - epoch; n < 10*32 {
		t.Fatalf("%d worker epochs over 10 runs of 64 rounds: rounds did not go parallel", n)
	}
	if long := batch(256); short != long {
		t.Errorf("%d allocations over 10 runs of 64 rounds, %d over 10 of 256: a parallel round allocates", short, long)
	}
}

// TestGroupSerialAllocs gates the serial stretch: a 3-shard run on 1 ns
// channels, light enough that it never leaves stretches and probe
// rounds, with cross-shard sends that land before their destination's
// head and a round hook installed, must allocate nothing per item once
// warmed up.
func TestGroupSerialAllocs(t *testing.T) {
	const shards, hops = 3, 1024
	g := NewGroup(1, shards)
	next := make([]*Chan, shards)
	for i := range next {
		next[i] = NewChan(g.Shard(i), g.Shard((i+1)%shards), 1)
	}
	hooks := 0
	g.SetRoundHook(64, func(Time) { hooks++ })
	left := make([]int, shards)
	fwd := make([]func(), shards)
	for i := range fwd {
		fwd[i] = func() {
			// Every shard relays around the ring and ticks locally, so
			// each shard's head trails the last message sent to it.
			if left[i]--; left[i] > 0 {
				next[i].Send(1, fwd[(i+1)%shards])
				g.Shard(i).Schedule(2, func() {})
			}
		}
	}
	run := func() {
		for i := range left {
			left[i] = hops
			g.Shard(i).Schedule(Time(i), fwd[i])
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the slot pools, the queues and the round scratch
	crit, exec, epoch := g.CritPath(), g.Executed(), g.bar.epoch.Load()
	measureAllocs(t, "serial stretch", run)
	if d := g.Executed() - exec; d < 100*hops || g.CritPath()-crit != d {
		t.Fatalf("ran %d items with a critical path of %d: want every item in a serial stretch", d, g.CritPath()-crit)
	}
	if g.bar.epoch.Load() != epoch || hooks == 0 {
		t.Fatalf("%d worker epochs, %d hook calls: want none and some", g.bar.epoch.Load()-epoch, hooks)
	}
}

// TestQueueRingAllocs gates the ring's bucket storage: with a queue
// 610 deep (campus-write's mean depth) of events each rescheduling 1–2
// µs ahead (the benchmark's queue driver), running across many ring
// laps must allocate nothing per event, and the whole run's allocation
// must stay O(depth). Buckets fill and empty every lap; their arrays
// are recycled as spares, not kept one per bucket, which would hold
// all 256 of them grown.
func TestQueueRingAllocs(t *testing.T) {
	const depth = 610
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine(1)
	rng := NewRNG(1)
	delays := make([]Time, 1024)
	for i := range delays {
		delays[i] = Microsecond + Time(rng.Intn(1000))
	}
	fired := 0
	var fire func()
	fire = func() {
		fired++
		e.Schedule(delays[fired&1023], fire) //tgvet:allow eventdrop(the test's events always fire; nothing cancels them)
	}
	for i := 0; i < depth; i++ {
		e.Schedule(delays[i], fire) //tgvet:allow eventdrop(the test's events always fire; nothing cancels them)
	}
	lap := func() {
		if err := e.RunUntil(e.Now() + ringSpan); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		lap()
	}
	measureAllocs(t, "ring lap", lap)
	runtime.ReadMemStats(&after)
	if got := e.Pending(); got != depth {
		t.Fatalf("queue depth %d, want %d", got, depth)
	}
	if fired < 100*depth {
		t.Fatalf("%d events fired, want at least %d", fired, 100*depth)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total >= 256<<10 {
		t.Errorf("run allocated %d bytes in total, want under 256 KiB at depth %d", total, depth)
	}
}

// TestProcSwitchAllocs gates process hand-off: a warmed process in a
// Sleep loop parks and is woken again with no allocation per switch.
func TestProcSwitchAllocs(t *testing.T) {
	e := NewEngine(1)
	stop, switches := false, 0
	e.Spawn("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
			switches++
		}
	})
	if err := e.RunUntil(1024); err != nil {
		t.Fatal(err)
	}
	measureAllocs(t, "proc switch", func() {
		if err := e.RunUntil(e.Now() + 256); err != nil {
			t.Fatal(err)
		}
	})
	stop = true
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if switches < 1024+100*256 {
		t.Fatalf("%d switches, want at least %d", switches, 1024+100*256)
	}
}

// spawnAllocs pins the allocations of one process from Spawn to return:
// the Proc, its prebound wake closure, its iter.Pull function and the
// coroutine iter.Pull builds around it. A spawn costs the same inside a
// running engine as on an idle one: no coroutine outlives its process.
// Lower it when a change lowers it; raising it needs a reason.
const spawnAllocs = 14

// TestSpawnAllocs pins the allocations of one spawn-to-finish cycle, so
// that the per-process cost cannot grow unnoticed.
func TestSpawnAllocs(t *testing.T) {
	body := func(p *Proc) { p.Sleep(1) }
	t.Run("cold", func(t *testing.T) {
		// Each cycle's spawn runs in a run of its own.
		e := NewEngine(1)
		cycle := func() {
			e.Spawn("p", body)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm the slot pool, the event queue and the live list
		if avg := testing.AllocsPerRun(100, cycle); avg != spawnAllocs {
			t.Errorf("cold spawn-to-finish: %.2f allocs/run, want %d", avg, spawnAllocs)
		}
	})
	t.Run("warm", func(t *testing.T) {
		// A spawner process spawns a child and sleeps past its end, all
		// inside one run.
		e := NewEngine(1)
		avg := -1.0
		e.Spawn("spawner", func(p *Proc) {
			cycle := func() {
				e.Spawn("child", body)
				p.Sleep(2)
			}
			cycle()
			avg = testing.AllocsPerRun(100, cycle)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if avg != spawnAllocs {
			t.Errorf("warm spawn-to-finish: %.2f allocs/run, want %d", avg, spawnAllocs)
		}
	})
}
