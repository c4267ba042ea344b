package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestCancelCompaction proves canceled events are reclaimed: after
// canceling well over half of a large batch, Pending must report only
// live events and the queue must have shed the dead ones.
func TestCancelCompaction(t *testing.T) {
	e := NewEngine(1)
	var evs []Event
	for i := 0; i < 1000; i++ {
		evs = append(evs, e.Schedule(Time(i+1), func() {}))
	}
	for i := 0; i < 900; i++ {
		evs[i].Cancel()
	}
	if got := e.Pending(); got != 100 {
		t.Fatalf("Pending after cancels = %d, want 100 (live events only)", got)
	}
	if e.queue.len() >= 1000 {
		t.Fatalf("queue holds %d entries after canceling 900 of 1000; compaction never ran", e.queue.len())
	}
	ran := 0
	e.At(2000, func() { ran++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("live event after compaction ran %d times, want 1", ran)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
}

// TestCancelSmallNoCompaction: tiny queues never pay for compaction, and
// canceled heads are lazily discarded on the way out.
func TestCancelSmallNoCompaction(t *testing.T) {
	e := NewEngine(1)
	a := e.Schedule(1, func() { t.Fatal("canceled event ran") })
	ran := false
	e.Schedule(2, func() { ran = true })
	a.Cancel()
	a.Cancel() // double-cancel is a no-op
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("live event did not run")
	}
}

// TestGroupSingleShardMatchesEngine: NewGroup(seed, 1) must execute the
// exact same schedule as a bare engine — the reduction the whole design
// rests on.
func TestGroupSingleShardMatchesEngine(t *testing.T) {
	runOne := func(e *Engine) []Time {
		var log []Time
		ch := NewChan(e, e, 5)
		e.Schedule(10, func() {
			log = append(log, e.Now())
			ch.Send(5, func() { log = append(log, e.Now()) })
		})
		e.Schedule(15, func() { log = append(log, e.Now()) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a := runOne(NewEngine(7))
	g := NewGroup(7, 1)
	b := runOne(g.Shard(0))
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("1-shard group schedule %v != bare engine schedule %v", b, a)
	}
}

// TestChanCrossShardDelivery: messages cross shards at the send time plus
// the (clamped) delay, and the receiver's clock follows the message.
func TestChanCrossShardDelivery(t *testing.T) {
	g := NewGroup(1, 2)
	a, b := g.Shard(0), g.Shard(1)
	ab := NewChan(a, b, 10)
	var got []string
	a.Schedule(100, func() {
		ab.Send(10, func() { got = append(got, fmt.Sprintf("b@%d", b.Now())) })
		ab.Send(3, func() { got = append(got, fmt.Sprintf("clamped@%d", b.Now())) }) // clamps to minDelay
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[b@110 clamped@110]"
	if fmt.Sprint(got) != want {
		t.Fatalf("delivery = %v, want %v", got, want)
	}
}

// TestChanTieOrder: simultaneous messages on different channels run in
// channel-creation order — the build-time identity that keeps sharded
// runs schedule-independent.
func TestChanTieOrder(t *testing.T) {
	g := NewGroup(1, 2)
	a, b := g.Shard(0), g.Shard(1)
	ch1 := NewChan(a, b, 1)
	ch2 := NewChan(a, b, 1)
	var got []string
	a.Schedule(5, func() {
		ch2.Send(10, func() { got = append(got, "ch2") })
		ch1.Send(10, func() { got = append(got, "ch1") })
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[ch1 ch2]" {
		t.Fatalf("tie order = %v, want [ch1 ch2] (channel-id order)", got)
	}
}

// TestGroupRelayLookahead: shard A's activity relayed through an idle
// shard B must not arrive in shard C's past. The scenario that breaks a
// naive (direct-neighbor-only) safe-window bound: C's only direct
// neighbor is B, which is idle, while A is about to wake B.
func TestGroupRelayLookahead(t *testing.T) {
	g := NewGroup(1, 3)
	a, b, c := g.Shard(0), g.Shard(1), g.Shard(2)
	ab := NewChan(a, b, 1)
	bc := NewChan(b, c, 1)
	_ = bc
	var cTimes []int64
	// C has far-future local work; without the transitive bound it would
	// run to 1000 in round one.
	c.Schedule(1000, func() { cTimes = append(cTimes, int64(c.Now())) })
	a.Schedule(5, func() {
		ab.Send(1, func() {
			bc.Send(1, func() { cTimes = append(cTimes, int64(c.Now())) })
		})
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cTimes) != "[7 1000]" {
		t.Fatalf("shard C execution order = %v, want [7 1000] (relayed message first)", cTimes)
	}
}

// TestGroupDeterministicAcrossShardCounts: one logical system — a ring of
// four stations ping-ponging timestamped work — produces the same
// canonical event stream on 1, 2, and 4 shards. Each station logs only
// from its own shard; the per-station streams are merged by (time,
// station), mirroring the canonical (At, Node) order of trace.WindowedLog.
func TestGroupDeterministicAcrossShardCounts(t *testing.T) {
	type entry struct {
		at      int64
		station int
	}
	run := func(shards int) string {
		g := NewGroup(42, shards)
		const stations = 4
		engs := make([]*Engine, stations)
		for i := range engs {
			engs[i] = g.Shard(i * shards / stations)
		}
		chans := make([]*Chan, stations)
		for i := range chans {
			chans[i] = NewChan(engs[i], engs[(i+1)%stations], Time(3+i))
		}
		logs := make([][]entry, stations)
		var hop func(i, left int) func()
		hop = func(i, left int) func() {
			return func() {
				logs[i] = append(logs[i], entry{int64(engs[i].Now()), i})
				if left > 0 {
					chans[i].Send(Time(3+i), hop((i+1)%stations, left-1))
				}
			}
		}
		for i := range engs {
			i := i
			engs[i].Schedule(Time(1+i), hop(i, 10))
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		var merged []entry
		for _, l := range logs {
			merged = append(merged, l...)
		}
		sort.SliceStable(merged, func(a, b int) bool { return merged[a].at < merged[b].at })
		return fmt.Sprint(merged)
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != want {
			t.Fatalf("shards=%d schedule differs:\n got %s\nwant %s", shards, got, want)
		}
	}
}

// TestCrossShardBlockingPanics: blocking on another shard's primitive is
// a build bug the engine must reject loudly rather than deadlock on.
func TestCrossShardBlockingPanics(t *testing.T) {
	g := NewGroup(1, 2)
	q := NewQueue[int](g.Shard(1))
	g.Shard(0).Spawn("offender", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("cross-shard Queue.Get did not panic")
			}
			panic("stop") // re-panic so the engine records the failure and unwinds
		}()
		q.Get(p)
	})
	if err := g.Run(); err == nil {
		t.Fatal("group run reported no failure")
	}
}

// TestGroupStallDetection: a parked non-daemon process on any shard must
// surface as ErrStalled once the group drains, and the report names
// every blocked process with its shard and park time.
func TestGroupStallDetection(t *testing.T) {
	g := NewGroup(1, 2)
	c0, c1 := NewCompletion(g.Shard(0)), NewCompletion(g.Shard(1))
	g.Shard(1).Spawn("waiter", func(p *Proc) { c1.Wait(p) })
	g.Shard(0).Spawn("late", func(p *Proc) { p.Sleep(5); c0.Wait(p) })
	g.Shard(0).Schedule(9, func() {})
	err := g.Run()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("Run() = %v, want ErrStalled", err)
	}
	want := `(2 blocked: "waiter" on shard 1 parked at 0ns, "late" on shard 0 parked at 5ns)`
	if !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("Run() = %q, want it to end in %q", err, want)
	}
}

// TestCanceledFarHeadKeepsRing is the canceled-head trap. Shard 0
// discards a canceled timer far past the round's horizon from the head
// of its queue while shard 1 stages messages to it for earlier times.
// The discard must not move shard 0's ring past its clock: the messages
// flushed at the next barrier would land a lap behind.
func TestCanceledFarHeadKeepsRing(t *testing.T) {
	g := NewGroup(1, 2)
	e0, e1 := g.Shard(0), g.Shard(1)
	ch := NewChan(e1, e0, 50)
	timer := e0.At(100*ringSpan, func() { t.Error("canceled timer fired") })
	e0.At(100, func() { timer.Cancel() })
	var got []Time
	recv := func() {
		if e0.queue.cur > e0.Now() {
			t.Errorf("ring at %d, ahead of shard 0's clock %d", e0.queue.cur, e0.Now())
		}
		got = append(got, e0.Now())
	}
	e1.At(150, func() {
		for i := Time(0); i < 3; i++ {
			ch.Send(50+i*ringSpan/2, recv)
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{200, 200 + ringSpan/2, 200 + ringSpan}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("messages ran at %v, want %v", got, want)
	}
}

// TestNewChanIDBound: a channel id must stay below 2^(63-msgSeqBits),
// so that every message key sorts below eventKey and messages keep
// running before same-instant events. NewChan panics at exactly that
// bound, in a group and on a standalone engine.
func TestNewChanIDBound(t *testing.T) {
	const bound = 1 << (63 - msgSeqBits)
	if last := uint64(bound-1)<<msgSeqBits | (1<<msgSeqBits - 1); last >= eventKey {
		t.Fatalf("largest message key %#x is not below eventKey", last)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewChan at id %d did not panic", what, bound)
			}
		}()
		f()
	}
	g := NewGroup(1, 2)
	g.nextChanID = bound - 1
	if ch := NewChan(g.Shard(0), g.Shard(1), 1); ch.id != bound-1 {
		t.Fatalf("group chan id %d, want %d", ch.id, bound-1)
	}
	mustPanic("group", func() { NewChan(g.Shard(1), g.Shard(0), 1) })
	e := NewEngine(1)
	e.nextChanID = bound - 1
	NewChan(e, e, 1)
	mustPanic("standalone", func() { NewChan(e, e, 1) })
}

// TestReserveDrainedClock: a message whose key Chan.Reserve took and
// that is never sent still sets where a drained run ends, on a
// standalone engine and in a 2-shard group (on every shard), as the
// message would have if it had been sent; a run stopped at a deadline
// before it is not drained; and Elided counts it.
func TestReserveDrainedClock(t *testing.T) {
	e := NewEngine(1)
	ch := NewChan(e, e, 5)
	e.At(10, func() { ch.Reserve(50) })
	e.At(20, func() {})
	if err := e.RunUntil(40); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 40 || e.idle() {
		t.Fatalf("engine at the deadline before the reserved message: now %d, idle %v; want 40, not idle", e.Now(), e.idle())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 60 || e.Executed() != 2 {
		t.Fatalf("engine drained at %d after %d items, want 60 after 2", e.Now(), e.Executed())
	}

	g := NewGroup(1, 2)
	NewChan(g.Shard(0), g.Shard(1), 5)
	ch = NewChan(g.Shard(1), g.Shard(1), 5)
	g.Shard(1).At(10, func() { ch.Reserve(50) })
	g.Shard(0).At(20, func() {})
	if err := g.RunUntil(40); err != nil {
		t.Fatal(err)
	}
	if g.Idle() {
		t.Fatal("group idle at a deadline before the reserved message")
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if now := g.Shard(i).Now(); now != 60 {
			t.Errorf("shard %d drained at %d, want 60", i, now)
		}
	}
	if g.Elided() != 1 || !g.Idle() {
		t.Fatalf("Elided %d, Idle %v after the drain; want 1 and true", g.Elided(), g.Idle())
	}
}

// TestChanSendKeyOrder: a message sent with SendKey runs where a Send at
// its reservation would have run it, ahead of a same-instant message
// sent later on the channel; Passed judges its key against the running
// item; and a sent key no longer counts as elided.
func TestChanSendKeyOrder(t *testing.T) {
	g := NewGroup(1, 1)
	e := g.Shard(0)
	ch := NewChan(e, e, 5)
	var order []string
	var at Time
	var key uint64
	e.At(10, func() {
		at, key = ch.Reserve(20)
		ch.Send(20, func() {
			if !ch.Passed(at, key) {
				t.Error("the reserved message has not passed for a message keyed after it")
			}
			order = append(order, "sent")
		})
	})
	e.At(25, func() {
		if ch.Passed(at, key) {
			t.Error("the reserved message passed before its time")
		}
		ch.SendKey(at, key, func() { order = append(order, "reserved") })
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "reserved sent" || g.Elided() != 0 || e.Now() != 30 {
		t.Fatalf("order %q, Elided %d, now %d; want \"reserved sent\", 0, 30", got, g.Elided(), e.Now())
	}
}

// TestGroupCommonCap: two independent, identical loads on two shards,
// the second starting 300 ns after the first, must run balanced
// rounds. Each load pauses once, so the shards' queue heads fall out of
// phase in the rounds that follow; with a cap of its own per shard,
// each window would reach a lookahead past the other's head, and one
// shard would run the longer window round after round. One cap per
// round brings the heads back into phase, so the critical path stays
// near half the items: the opening serial stretch and the 300 ns the
// second load runs alone add about a twentieth.
func TestGroupCommonCap(t *testing.T) {
	const window = 100 // the lookahead each way, in ns
	const lanes = 4    // tick chains per shard, each ticking every nanosecond
	const end, pauseAt, pause, shift = 20000, 3000, 120, 300
	g := NewGroup(1, 2)
	NewChan(g.Shard(0), g.Shard(1), window)
	NewChan(g.Shard(1), g.Shard(0), window)
	for s := 0; s < 2; s++ {
		e, off := g.Shard(s), Time(s*shift)
		for l := 0; l < lanes; l++ {
			var tick func()
			tick = func() {
				next := e.Now() + 1
				if next == pauseAt+off {
					next += pause
				}
				if next < end+off {
					e.At(next, tick)
				}
			}
			e.At(1+off, tick)
		}
	}
	epoch := g.bar.epoch.Load()
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.bar.epoch.Load() == epoch {
		t.Fatal("no parallel round ran")
	}
	if ratio := float64(g.CritPath()) / float64(g.Executed()); ratio > 0.6 {
		t.Fatalf("critical path %d of %d items (%.3f), want at most 0.6", g.CritPath(), g.Executed(), ratio)
	}
}
