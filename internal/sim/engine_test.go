package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{700, "700ns"},
		{7200, "7.20µs"},
		{1500 * Microsecond, "1.50ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(20, func() { order = append(order, 2) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(30, func() { order = append(order, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of order: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want 2 events", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v after RunUntil(25)", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("Run() after RunUntil left %d fired, want 4", len(fired))
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
		p.Sleep(50)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 100 {
		t.Fatalf("woke at %v, want 100", wake)
	}
	if e.Now() != 150 {
		t.Fatalf("final time %v, want 150", e.Now())
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(10)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic trace length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

// TestStalledDetection: a run that drains with non-daemon processes
// blocked returns ErrStalled naming each of them, its shard and the time
// it parked, and leaves out processes that finished and daemons.
func TestStalledDetection(t *testing.T) {
	e := NewEngine(1)
	c := NewCompletion(e)
	e.Spawn("done", func(p *Proc) { p.Sleep(3) })
	e.Spawn("blocked", func(p *Proc) { p.Sleep(7); c.Wait(p) })
	e.Spawn("early", func(p *Proc) { c.Wait(p) })
	e.SpawnDaemon("server", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("Run() = %v, want ErrStalled", err)
	}
	want := `(2 blocked: "early" on shard 0 parked at 0ns, "blocked" on shard 0 parked at 7ns)`
	if !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("Run() = %q, want it to end in %q", err, want)
	}
}

func TestDaemonDoesNotStall(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	e.Spawn("client", func(p *Proc) {
		q.Put(p, 1)
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil (daemon may block)", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want panic error")
	}
}

func TestCompletion(t *testing.T) {
	e := NewEngine(1)
	c := NewCompletion(e)
	var woke []string
	e.Spawn("w1", func(p *Proc) { c.Wait(p); woke = append(woke, "w1") })
	e.Spawn("w2", func(p *Proc) { c.Wait(p); woke = append(woke, "w2") })
	e.Spawn("resolver", func(p *Proc) {
		p.Sleep(100)
		c.Complete()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Fatalf("waiters woke as %v, want [w1 w2]", woke)
	}
	if e.Now() != 100 {
		t.Fatalf("completed at %v, want 100", e.Now())
	}
	// Waiting on a done completion returns immediately.
	done := false
	e.Spawn("late", func(p *Proc) { c.Wait(p); done = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("late waiter did not return from done completion")
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[uint64](e)
	var got uint64
	e.Spawn("reader", func(p *Proc) { got = f.Wait(p) })
	e.Spawn("writer", func(p *Proc) {
		p.Sleep(42)
		f.Resolve(0xdead)
		f.Resolve(0xbeef) // second resolve ignored
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0xdead {
		t.Fatalf("future value %#x, want 0xdead (first resolve wins)", got)
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []int
	var gotAt []Time
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, q.Get(p))
			gotAt = append(gotAt, p.Now())
		}
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(100)
		for i := 1; i <= 3; i++ {
			q.Put(p, i)
		}
		p.Sleep(10)
		q.Put(p, 4)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("queue order %v, want [1 2 3 4]", got)
		}
	}
	if len(gotAt) != 4 || gotAt[0] != 100 || gotAt[3] != 110 {
		t.Fatalf("consumer received at %v; should have blocked on the empty queue until 100, then 110", gotAt)
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine(1)
	s := NewSemaphore(e, 2)
	var acquired []Time
	for i := 0; i < 4; i++ {
		e.Spawn("worker", func(p *Proc) {
			s.Acquire(p)
			acquired = append(acquired, p.Now())
			p.Sleep(50)
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acquired) != 4 {
		t.Fatalf("got %d acquisitions, want 4", len(acquired))
	}
	if acquired[0] != 0 || acquired[1] != 0 {
		t.Fatalf("first two should acquire at t=0: %v", acquired)
	}
	if acquired[2] != 50 || acquired[3] != 50 {
		t.Fatalf("last two should acquire at t=50: %v", acquired)
	}
}

func TestMutexExclusion(t *testing.T) {
	e := NewEngine(1)
	m := NewMutex(e)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(10)
			inside--
			m.Unlock()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("mutex admitted %d holders", maxInside)
	}
	if e.Now() != 50 {
		t.Fatalf("serialized critical sections should end at 50, got %v", e.Now())
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewEngine(99).Rand().Uint64()
	b := NewEngine(99).Rand().Uint64()
	if a != b {
		t.Fatal("same seed produced different random streams")
	}
}

func TestYieldRunsPendingEvents(t *testing.T) {
	e := NewEngine(1)
	seen := false
	e.Spawn("p", func(p *Proc) {
		e.Schedule(0, func() { seen = true })
		p.Sleep(0)
		if !seen {
			t.Error("Sleep(0) returned before same-instant event ran")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReserveAtKeyOrder: an event scheduled with AtKey at a number
// Reserve took runs where an At called at the reservation would have,
// ahead of later same-instant events, and the events scheduled between
// keep their own numbers.
func TestReserveAtKeyOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	at := func(s string) func() { return func() { order = append(order, s) } }
	e.At(10, at("before"))
	seq := e.Reserve()
	e.At(10, at("after"))
	e.At(5, func() { e.AtKey(10, seq, at("reserved")) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "before reserved after" {
		t.Fatalf("order %q, want \"before reserved after\"", got)
	}
}

// TestPassed: Passed judges an event key against the running item's.
// At an event's own instant, earlier-scheduled events and the event
// itself have passed and later ones have not; a message runs ahead of
// every event at its instant, so none has passed for it; and after
// RunUntil returns, everything at now has.
func TestPassed(t *testing.T) {
	e := NewEngine(1)
	early, mid, self := e.Reserve(), e.Reserve(), e.Reserve()
	check := func(who string, t0 Time, seq uint64, want bool) {
		t.Helper()
		if got := e.Passed(t0, seq); got != want {
			t.Errorf("%s: Passed(%d, %d) = %v at now %d, want %v", who, t0, seq, got, e.Now(), want)
		}
	}
	e.AtKey(20, self, func() {
		check("event", 20, early, true)
		check("event", 20, self, true)
		check("event", 20, self+1, false)
		check("event", 19, self+1, true)
		check("event", 21, early, false)
	})
	ch := NewChan(e, e, 20)
	e.At(0, func() {
		ch.Send(20, func() {
			check("message", 20, early, false)
			check("message", 19, mid, true)
		})
	})
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	check("after RunUntil", 20, e.Reserve(), true)
	check("after RunUntil", 21, early, false)
}
