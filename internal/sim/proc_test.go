package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// Process hand-off on a multi-shard Group. A run opens with a serial
// stretch on the goroutine that called Run; once a round's heaviest
// shard executes seqRoundWork items or more, the next round runs every
// window but the last on the persistent round worker bound to its shard,
// so a process on shard 0 is resumed from that worker's goroutine. These
// tests drive a load that heavy for long past the opening stretch's
// stretchWork items, and check that the hand-off still gives the 1-shard
// schedule and still reports a process that dies.

// goid returns the id of the calling goroutine, from the header line of
// its stack dump ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// workerLoad builds, on g, four stations of 16 sleeping processes each,
// about 25 items per nanosecond in all over 2.5 µs, with a ring of
// cross-station channels. Station i lives on shard
// i*shards/4. Every process logs each step with its station's message
// count, so the log depends on how process steps and message deliveries
// interleave. The message handlers of station 0 record in rounds which
// goroutines ran shard 0's windows, and in which barrier epochs.
type workerLoad struct {
	engs   []*Engine
	logs   [][]logLine
	rounds map[string]map[uint64]bool
}

// logLine is one process step: its time, which step of which process
// on which station it was, and the station's message count it saw.
type logLine struct {
	at                      Time
	station, proc, step, rx int
}

func newWorkerLoad(g *Group) *workerLoad {
	const stations, procs, steps = 4, 16, 1000
	w := &workerLoad{
		engs:   make([]*Engine, stations),
		logs:   make([][]logLine, stations),
		rounds: map[string]map[uint64]bool{},
	}
	for i := range w.engs {
		w.engs[i] = g.Shard(i * g.Shards() / stations)
	}
	recv := make([]int, stations)
	chans := make([]*Chan, stations)
	for i := range chans {
		chans[i] = NewChan(w.engs[i], w.engs[(i+1)%stations], 50)
	}
	for i := range w.engs {
		i, dst := i, (i+1)%stations
		deliver := func() {
			recv[dst]++
			if dst == 0 {
				id := goid()
				if w.rounds[id] == nil {
					w.rounds[id] = map[uint64]bool{}
				}
				w.rounds[id][g.bar.epoch.Load()] = true
			}
		}
		for j := 0; j < procs; j++ {
			j := j
			w.engs[i].Spawn(fmt.Sprintf("s%d.p%d", i, j), func(p *Proc) {
				for k := 0; k < steps; k++ {
					p.Sleep(Time(1 + (i+j+k)%4))
					w.logs[i] = append(w.logs[i], logLine{p.Now(), i, j, k, recv[i]})
					if k%8 == j%8 {
						chans[i].Send(50, deliver)
					}
				}
			})
		}
	}
	return w
}

// trace merges the per-station logs into one canonical stream ordered by
// time, then station.
func (w *workerLoad) trace() []logLine {
	var merged []logLine
	for _, l := range w.logs {
		merged = append(merged, l...)
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].at < merged[b].at })
	return merged
}

// TestProcWorkerRoundsMatchOneShard: processes resumed from a round
// worker produce the 1-shard schedule exactly, and shard 0's windows in
// parallel rounds all ran on the one persistent worker bound to it.
func TestProcWorkerRoundsMatchOneShard(t *testing.T) {
	want := oneShardTrace(t)
	g := NewGroup(5, 2)
	two := newWorkerLoad(g)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	delete(two.rounds, goid())
	if len(two.rounds) != 1 {
		t.Fatalf("shard 0 ran on %d goroutines besides the scheduler, want its one round worker", len(two.rounds))
	}
	for _, epochs := range two.rounds {
		if len(epochs) < 2 {
			t.Fatalf("shard 0 ran on its worker in %d rounds, want several: rounds never went parallel", len(epochs))
		}
	}
	sameTrace(t, two.trace(), want)
}

// runVictim adds to the load a process on shard 0 that dies by die once
// an event finds shard 0's window running on a worker goroutine, and
// returns the group's Run error.
func runVictim(t *testing.T, die func()) error {
	t.Helper()
	_, err := victimGroup(t, die)
	return err
}

// victimGroup is runVictim that also returns the group.
func victimGroup(t *testing.T, die func()) (*Group, error) {
	t.Helper()
	g := NewGroup(5, 2)
	w := newWorkerLoad(g)
	e0 := w.engs[0]
	armed := NewCompletion(e0)
	e0.Spawn("victim", func(p *Proc) {
		armed.Wait(p) // woken at the arming instant, in the same window
		die()
	})
	self := goid()
	var tick func()
	tick = func() {
		if goid() != self {
			armed.Complete()
			return
		}
		e0.Schedule(1, tick)
	}
	e0.Schedule(1, tick)
	err := g.Run()
	if !armed.Done() {
		t.Fatal("shard 0 never ran on a worker goroutine")
	}
	return g, err
}

// TestProcPanicOnWorkerShard: a panic in a process resumed by a round
// worker fails the run with an error naming the process.
func TestProcPanicOnWorkerShard(t *testing.T) {
	err := runVictim(t, func() { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), `"victim"`) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run() = %v, want the victim's panic", err)
	}
}

// TestProcGoexitOnWorkerShard: runtime.Goexit in a process (t.FailNow,
// say) resurfaces in the goroutine that resumed it. On a round worker
// that ends the worker's window early, so the run must still fail with
// an error naming the process.
func TestProcGoexitOnWorkerShard(t *testing.T) {
	err := runVictim(t, runtime.Goexit)
	if err == nil || !strings.Contains(err.Error(), `"victim"`) || !strings.Contains(err.Error(), "Goexit") {
		t.Fatalf("Run() = %v, want the victim's Goexit", err)
	}
}

// Process lifecycle. Each process runs on its own coroutine, which ends
// with the body.

// TestFinishedProcessesLeaveNoGoroutine: a run whose processes all
// finish leaves no goroutine behind, on a standalone engine and on a
// 2-shard group.
func TestFinishedProcessesLeaveNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < 8; i++ {
			e.Spawn(fmt.Sprintf("child%d", i), func(p *Proc) { p.Sleep(1) })
			p.Sleep(2)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, len(e.live), before)

	before = runtime.NumGoroutine()
	g := NewGroup(5, 2)
	newWorkerLoad(g)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, g.Alive(), before)
}

// TestPanicReportedByName: a body that panics after other processes
// have finished is reported under its own name.
func TestPanicReportedByName(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("first", func(p *Proc) {})
	e.Schedule(1, func() {
		e.Spawn("bad", func(p *Proc) { panic("boom") })
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run() = %v, want bad's panic", err)
	}
}

// TestStaleWakeOnFinishedProc: a finished Proc stays Done, and a wake
// for it that arrives while another process sleeps is inert: the
// sleeper resumes only on its own wakes.
func TestStaleWakeOnFinishedProc(t *testing.T) {
	e := NewEngine(1)
	old := e.Spawn("old", func(p *Proc) {})
	var woke []Time
	var young *Proc
	e.Schedule(1, func() {
		young = e.Spawn("young", func(p *Proc) {
			e.Schedule(3, old.wakeFn) // the stale wake lands mid-sleep
			p.Sleep(10)
			woke = append(woke, p.Now())
			if !old.Done() {
				t.Error("old is not Done while young runs")
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 1 || woke[0] != 11 {
		t.Fatalf("young woke at %v, want once at 11", woke)
	}
	if !old.Done() || !young.Done() {
		t.Fatalf("Done: old %v, young %v; want both", old.Done(), young.Done())
	}
}
