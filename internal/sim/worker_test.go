package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Round-worker lifecycle. A Group starts its round workers at the first
// parallel round of a RunUntil and must stop them on every way out of
// it, so no goroutine outlives the call and a dropped Group leaks
// nothing. These tests run the heavy-round load of proc_test.go.

// expectGoroutines fails the test unless the goroutine count falls back
// to before, plus one for each of the alive unfinished processes: a
// process is a coroutine, which the runtime counts as a goroutine. A
// goroutine still counts for a moment after its last deferred call
// returns, until the runtime reaps it, so the check polls for a while;
// a leaked worker or coroutine never goes away.
// The count may end lower than before, when an earlier test's goroutine
// was reaped in between.
func expectGoroutines(t *testing.T, alive, before int) {
	t.Helper()
	want := before + alive
	limit := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(limit) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Fatalf("%d goroutines after RunUntil, want %d: round workers or process coroutines outlived the call", n, want)
	}
}

// sameTrace fails the test unless got is the want trace.
func sameTrace(t *testing.T, got, want []logLine) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("logged %d steps, 1-shard run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d differs: %v, 1-shard run %v", i, got[i], want[i])
		}
	}
}

// oneShardTrace runs the worker load on one shard.
func oneShardTrace(t *testing.T) []logLine {
	t.Helper()
	one := newWorkerLoad(NewGroup(5, 1))
	if err := one.engs[0].Run(); err != nil {
		t.Fatal(err)
	}
	return one.trace()
}

// wentParallel fails the test unless shard 0 ran on a goroutine other
// than the caller's, that is, on its round worker.
func wentParallel(t *testing.T, w *workerLoad) {
	t.Helper()
	self := goid()
	for id := range w.rounds {
		if id != self {
			return
		}
	}
	t.Fatal("shard 0 never ran on a round worker")
}

// TestGroupWorkersStopOnDrain: a run to quiescence stops its workers.
func TestGroupWorkersStopOnDrain(t *testing.T) {
	want := oneShardTrace(t)
	before := runtime.NumGoroutine()
	g := NewGroup(5, 2)
	w := newWorkerLoad(g)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, g.Alive(), before)
	wentParallel(t, w)
	sameTrace(t, w.trace(), want)
}

// TestGroupWorkersStopAtDeadline: every RunUntil that returns at its
// deadline stops its workers, the next one starts them again, and the
// sliced run still gives the 1-shard trace. A full 1 µs slice runs
// more than stretchWork items, so it goes from its opening serial
// stretch to parallel rounds. At 8 shards the load leaves some workers idle in
// every round, so a restarted worker must not take the previous call's
// stop for a task of its own.
func TestGroupWorkersStopAtDeadline(t *testing.T) {
	want := oneShardTrace(t)
	for _, shards := range []int{2, 8} {
		before := runtime.NumGoroutine()
		g := NewGroup(5, shards)
		w := newWorkerLoad(g)
		for slices := 0; g.Pending() > 0; slices++ {
			if slices > 1000 {
				t.Fatalf("%d shards: run did not drain in 1000 slices", shards)
			}
			if err := g.RunUntil(g.Now() + 1000); err != nil {
				t.Fatalf("%d shards: %v", shards, err)
			}
			expectGoroutines(t, g.Alive(), before)
		}
		wentParallel(t, w)
		sameTrace(t, w.trace(), want)
	}
}

// TestGroupWorkersStopOnFailure: a process that panics, or unwinds its
// worker by runtime.Goexit, fails the run, and the workers still stop.
// A second RunUntil on the group whose worker died reports the same
// failure and starts nothing that it leaves behind.
func TestGroupWorkersStopOnFailure(t *testing.T) {
	for _, c := range []struct {
		name string
		die  func()
	}{
		{"panic", func() { panic("boom") }},
		{"goexit", runtime.Goexit},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			g, err := victimGroup(t, c.die)
			if err == nil || !strings.Contains(err.Error(), `"victim"`) {
				t.Fatalf("Run() = %v, want the victim's failure", err)
			}
			expectGoroutines(t, g.Alive(), before)
			if again := g.RunUntil(g.Now() + 1000); again == nil || again.Error() != err.Error() {
				t.Fatalf("second RunUntil = %v, want %v", again, err)
			}
			expectGoroutines(t, g.Alive(), before)
		})
	}
}

// TestGroupWorkersManyShards: groups with more shards than the host has
// CPUs, most of them idle in some rounds, give the 1-shard trace and
// leave no worker behind.
func TestGroupWorkersManyShards(t *testing.T) {
	want := oneShardTrace(t)
	for _, shards := range []int{4, 8} {
		before := runtime.NumGoroutine()
		g := NewGroup(5, shards)
		w := newWorkerLoad(g)
		if err := g.Run(); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		expectGoroutines(t, g.Alive(), before)
		wentParallel(t, w)
		sameTrace(t, w.trace(), want)
	}
}

// TestGroupWorkerLateWake: a wake-up can reach a parked worker with no
// new round behind it, when the scheduler was descheduled between its
// look at the worker's parked flag and its claim, and the claim landed
// on the worker's next park. The worker must park again, not run a
// round it already ran.
func TestGroupWorkerLateWake(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGroup(1, 2)
	runs := 0
	g.Shard(0).Schedule(1, func() { runs++ })
	g.startWorkers()
	w := &g.workers[0]
	for !w.parked.Load() {
		runtime.Gosched()
	}
	g.unpark(w) // the late claim: a token, and the epoch unchanged
	for !w.parked.Load() {
		runtime.Gosched()
	}
	if n := g.bar.pending.Load(); n != 0 || runs != 0 {
		t.Fatalf("after a late wake-up: pending %d, %d events run; want 0 and 0", n, runs)
	}
	// A real round still reaches the worker, once.
	w.cap, w.deadline = -1, -1
	ep := g.bar.epoch.Load() + 1
	g.bar.pending.Store(1)
	w.task.Store(ep)
	g.bar.epoch.Store(ep)
	g.unpark(w)
	g.awaitWorkers()
	if runs != 1 {
		t.Fatalf("round ran %d events, want 1", runs)
	}
	g.stopWorkers()
	expectGoroutines(t, g.Alive(), before)
}
