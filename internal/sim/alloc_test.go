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

// TestChanSendCrossShardAllocs gates the cross-shard path end to end:
// staging on the source, batched hand-off at the barrier, inbox absorb
// and heap rebuild on the destination — a ping-pong between two shards
// so every round crosses the barrier in both directions.
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
	// Warm-up: the staging buffers, inboxes, and the group's round
	// scratch all reach steady-state capacity.
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
// whose every round runs more than seqRoundWork items per shard, and so
// goes to the workers, must allocate as much per Run at 512 rounds as at
// 64. Starting the workers costs a few allocations per RunUntil, O(shards);
// a round costs none.
func TestGroupParallelRoundAllocs(t *testing.T) {
	const window = 100 // the lookahead each way, in ns: one round's width
	g := NewGroup(1, 2)
	NewChan(g.Shard(0), g.Shard(1), window)
	NewChan(g.Shard(1), g.Shard(0), window)
	// Each shard ticks every nanosecond, so a round runs window items
	// on each shard.
	left := make([]Time, 2)
	ticks := make([]func(), 2)
	for i := range ticks {
		e := g.Shard(i)
		ticks[i] = func() {
			if left[i]--; left[i] > 0 {
				e.Schedule(1, ticks[i])
			}
		}
	}
	run := func(rounds int) func() {
		return func() {
			for i, f := range ticks {
				left[i] = Time(rounds * window)
				g.Shard(i).Schedule(1, f)
			}
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(512)() // warm the slot pools, the heaps and the worker slots
	crit := g.CritPath()
	short := testing.AllocsPerRun(20, run(64))
	if g.CritPath()-crit < 20*64*window {
		t.Fatalf("critical path grew %d items over 20 runs of 64 rounds: rounds did not go parallel", g.CritPath()-crit)
	}
	long := testing.AllocsPerRun(20, run(512))
	if short != long {
		t.Errorf("%.0f allocs per run at 64 rounds, %.0f at 512: a parallel round allocates", short, long)
	}
}

// TestQueueRingAllocs gates the ring's bucket storage: with a queue
// 610 deep (campus-write's mean depth) of events each rescheduling 1–2
// µs ahead (the benchmark's queue driver), running across many ring
// laps must allocate nothing per event, and the whole run's allocation
// must stay O(depth). Buckets fill and empty every lap; their arrays
// are recycled through the spare list, not kept one per bucket, which
// would hold all 256 of them grown.
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

// spawnAllocs is the allocation count of one process from Spawn to
// return: the Proc, its prebound wake closure, the coroutine iter.Pull
// builds around the body, and the body closure. Lower it when a change
// lowers the count; raising it needs a reason.
const spawnAllocs = 14

// TestSpawnAllocs pins the allocations of one spawn-to-finish cycle, so
// that the per-process cost cannot grow unnoticed.
func TestSpawnAllocs(t *testing.T) {
	e := NewEngine(1)
	body := func(p *Proc) { p.Sleep(1) }
	cycle := func() {
		e.Spawn("p", body)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the slot pool and the event heap
	if avg := testing.AllocsPerRun(100, cycle); avg != spawnAllocs {
		t.Errorf("spawn-to-finish: %.2f allocs/run, want %d", avg, spawnAllocs)
	}
}
