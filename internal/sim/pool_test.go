package sim

// Pool-safety regression tests: generation-checked handles must make a
// recycled slot unreachable through any stale Event, no matter how the
// slot left the queue (fired, canceled, compacted) or how many times it
// has been reused since.

import "testing"

// TestStaleHandleAfterFireIsInert: once an event fires, its slot is
// recycled; a retained handle must be inert even after the slot is
// reused by a new event.
func TestStaleHandleAfterFireIsInert(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	ev1 := e.Schedule(10, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if ev1.Live() {
		t.Fatal("handle still live after its event fired")
	}
	// The pool is LIFO: the next event reuses ev1's slot.
	ev2 := e.Schedule(10, func() { fired++ })
	if ev2.slot != ev1.slot {
		t.Fatalf("expected slot reuse (pool is LIFO); got different slots")
	}
	if ev1.Live() {
		t.Fatal("stale handle reports live after its slot was recycled")
	}
	ev1.Cancel() // must NOT cancel ev2, which now owns the slot
	if !ev2.Live() {
		t.Fatal("stale Cancel() killed the new occupant of the recycled slot")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("recycled-slot event did not fire: fired=%d, want 2", fired)
	}
}

// TestCanceledThenRecycledNeverFires: cancel an event, let its slot be
// recycled by a new event, and prove (a) the canceled callback never
// runs, (b) every stale operation on the old handle is a no-op.
func TestCanceledThenRecycledNeverFires(t *testing.T) {
	e := NewEngine(1)
	canceledRan := false
	fired := 0
	ev := e.Schedule(5, func() { canceledRan = true })
	ev.Cancel()
	if ev.Live() {
		t.Fatal("handle live after Cancel")
	}
	// Drain: the canceled entry is discarded at the queue head and its
	// slot recycled.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ev2 := e.Schedule(5, func() { fired++ })
	if ev2.slot != ev.slot {
		t.Fatalf("expected the canceled slot to be recycled")
	}
	// Stale handle ops against the recycled slot: all inert.
	ev.Cancel()
	if ev.Live() {
		t.Fatal("stale handle reports live after its slot was recycled")
	}
	if !ev2.Live() {
		t.Fatal("stale Cancel() reached the recycled slot")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if canceledRan {
		t.Fatal("canceled callback ran")
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
}

// TestZeroEventInert: the zero Event is safe to Cancel and Live.
func TestZeroEventInert(t *testing.T) {
	var ev Event
	if ev.Live() {
		t.Fatal("zero Event reports live")
	}
	ev.Cancel()
	if ev.Live() {
		t.Fatal("zero Event live after Cancel")
	}
}

// TestCancelChaosAtScale is the seeded large-scale regression: thousands
// of timers scheduled and roughly half canceled in random order (the ARQ
// retransmission-guard pattern that motivated handle generations), with
// enough churn to force slot reuse and queue compaction. Exactly the
// never-canceled timers fire, on every shard layout, in the same total
// order.
func TestCancelChaosAtScale(t *testing.T) {
	run := func(shards int) (fired []int, executed uint64) {
		g := NewGroup(42, shards)
		e := g.Shard(0)
		rng := NewRNG(1234)
		const timers = 5000
		evs := make([]Event, timers)
		expect := make([]bool, timers)
		for i := 0; i < timers; i++ {
			i := i
			evs[i] = e.Schedule(Time(1+rng.Intn(200)), func() { fired = append(fired, i) })
			expect[i] = true
		}
		// Cancel ~half, in shuffled order, including double-cancels.
		for i := 0; i < timers; i++ {
			if rng.Bool(0.5) {
				j := rng.Intn(timers)
				evs[j].Cancel()
				expect[j] = false
				if rng.Bool(0.1) {
					evs[j].Cancel() // double cancel: must be a no-op
				}
			}
		}
		// Second wave scheduled after the cancels: these reuse recycled
		// slots freed by compaction while the first wave is still queued.
		wave2 := 0
		for i := 0; i < 512; i++ {
			e.Schedule(Time(1+rng.Intn(200)), func() { wave2++ })
		}
		if err := g.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if wave2 != 512 {
			t.Fatalf("shards=%d: second wave fired %d/512", shards, wave2)
		}
		for i, want := range expect {
			if want && !contains(fired, i) {
				t.Fatalf("shards=%d: timer %d should have fired", shards, i)
			}
		}
		livec := 0
		for _, want := range expect {
			if want {
				livec++
			}
		}
		if len(fired) != livec {
			t.Fatalf("shards=%d: fired %d timers, want %d", shards, len(fired), livec)
		}
		return fired, g.Executed()
	}
	baseFired, baseExec := run(1)
	for _, shards := range []int{2, 4} {
		fired, exec := run(shards)
		if exec != baseExec {
			t.Fatalf("shards=%d executed %d items, shards=1 executed %d", shards, exec, baseExec)
		}
		for i := range baseFired {
			if fired[i] != baseFired[i] {
				t.Fatalf("shards=%d: firing order diverged at %d", shards, i)
			}
		}
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestPoolGenerationWrapsSafely exercises many recycle cycles through
// one slot, proving a handle from cycle k can never touch cycle k+n.
func TestPoolGenerationWrapsSafely(t *testing.T) {
	e := NewEngine(1)
	var stale []Event
	fired := 0
	for cycle := 0; cycle < 1000; cycle++ {
		ev := e.Schedule(1, func() { fired++ })
		stale = append(stale, ev)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	// Every retained handle is stale; none may disturb a fresh event.
	final := e.Schedule(1, func() { fired++ })
	for _, ev := range stale {
		if ev.Live() {
			t.Fatal("stale handle reports live")
		}
		ev.Cancel()
	}
	if !final.Live() {
		t.Fatal("stale handles reached the live event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1001 {
		t.Fatalf("fired %d, want 1001", fired)
	}
}
