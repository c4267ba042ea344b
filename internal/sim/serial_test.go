package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Serial stretches against barrier rounds. A multi-shard group runs a
// light phase as a serial stretch and a heavy one in parallel rounds;
// either way every shard must run its queue in the order a single shard
// would. These tests build random station graphs whose phases switch
// between the two modes and compare each station's execution log at 1,
// 2, 3 and 4 shards.

// serialLine is one logged step of a station: what ran, when, and the
// station state it saw.
type serialLine struct {
	at         Time
	kind, a, b int
}

// serialStation is one entity of the differential load. Only its own
// shard's work touches it: its process, its ticks and the messages
// delivered to it.
type serialStation struct {
	e    *Engine
	rng  *RNG
	out  []*Chan
	to   []int // the station each out channel leads to
	recv int
	log  []serialLine

	// How many of this station's items ran in serial stretches and in
	// rounds, and how many ran behind a watermark the round hook had
	// already reported.
	serial, rounds, early int
}

// serialLoad is a random station graph built on a group.
type serialLoad struct {
	g  *Group
	st []*serialStation

	// safe is the latest watermark the round hook saw; bad lists hook
	// calls whose watermark passed pending work or went backwards. The
	// hook runs with no shard executing, so items read safe race-free.
	safe Time
	bad  []string
}

// Shape of the differential load. Heavy phases run `lanes` tick chains
// on every station at 1 ns, so a 1 ns round's busiest shard runs at least
// lanes items and rounds go parallel; light phases carry only the
// stations' sparse message traffic, so rounds are light and the group
// runs serial stretches.
const (
	serialStations = 6
	serialLanes    = 40
	serialHeavy    = 120  // ns of each heavy phase
	serialPhase    = 1000 // ns from one heavy phase's start to the next
	serialPhases   = 2
	serialEnd      = serialPhase * serialPhases
)

// serialDelays are the channel lookaheads a graph draws from: 1 ns up to
// wide.
var serialDelays = []Time{1, 1, 2, 3, 7, 20, 90, 400}

// newSerialLoad builds the seed's station graph on g. Station i lives on
// shard i*shards/serialStations; channels, their lookaheads and every
// random choice come from the seed and the station, never from the
// shard layout.
func newSerialLoad(g *Group, seed uint64) *serialLoad {
	l := &serialLoad{g: g, st: make([]*serialStation, serialStations)}
	for i := range l.st {
		l.st[i] = &serialStation{
			e:   g.Shard(i * g.Shards() / serialStations),
			rng: ForkRNG(seed, fmt.Sprintf("station %d", i)),
		}
	}
	graph := ForkRNG(seed, "graph")
	for i, s := range l.st {
		for j, d := range l.st {
			if i != j && graph.Intn(100) < 40 {
				s.out = append(s.out, NewChan(s.e, d.e, serialDelays[graph.Intn(len(serialDelays))]))
				s.to = append(s.to, j)
			}
		}
		if len(s.out) == 0 {
			j := (i + 1) % serialStations
			s.out = append(s.out, NewChan(s.e, l.st[j].e, 1))
			s.to = append(s.to, j)
		}
	}
	for i, s := range l.st {
		s.e.Spawn(fmt.Sprintf("station%d", i), func(p *Proc) { l.pinger(p, i) })
		for ph := 0; ph < serialPhases; ph++ {
			start := Time(ph * serialPhase)
			for lane := 0; lane < serialLanes; lane++ {
				s.e.At(start+Time(lane%3), l.ticker(i, lane, start+serialHeavy))
			}
		}
	}
	return l
}

// note records, for station i, the mode the current item runs in and
// whether it runs before the last watermark.
func (l *serialLoad) note(i int) {
	s := l.st[i]
	if l.g.serial {
		s.serial++
	} else {
		s.rounds++
	}
	if s.e.Now() < l.safe {
		s.early++
	}
}

// pinger is station i's process: it sends to a random neighbour every
// few nanoseconds until the end of the run.
func (l *serialLoad) pinger(p *Proc, i int) {
	s := l.st[i]
	for n := 0; p.Now() < serialEnd; n++ {
		p.Sleep(Time(1 + s.rng.Intn(12)))
		l.note(i)
		s.log = append(s.log, serialLine{p.Now(), 0, n, s.recv})
		l.send(i, 3)
	}
}

// send forwards a message from station i, over a random one of its
// channels, with ttl more hops to go.
func (l *serialLoad) send(i, ttl int) {
	s := l.st[i]
	k := s.rng.Intn(len(s.out))
	s.out[k].Send(s.out[k].minDelay+Time(s.rng.Intn(4)), l.deliver(s.to[k], ttl))
}

// deliver returns the handler of a message to station j.
func (l *serialLoad) deliver(j, ttl int) func() {
	return func() {
		l.note(j)
		s := l.st[j]
		s.recv++
		s.log = append(s.log, serialLine{s.e.Now(), 1, ttl, s.recv})
		if ttl > 0 && s.rng.Intn(3) > 0 {
			l.send(j, ttl-1)
		}
	}
}

// ticker returns lane's tick chain on station i, which runs every 1 ns
// until end.
func (l *serialLoad) ticker(i, lane int, end Time) func() {
	s := l.st[i]
	var tick func()
	tick = func() {
		l.note(i)
		if lane%8 == 0 {
			s.log = append(s.log, serialLine{s.e.Now(), 2, lane, s.recv})
		}
		if s.rng.Intn(64) == 0 {
			l.send(i, 1)
		}
		if s.e.Now() < end {
			s.e.Schedule(1, tick)
		}
	}
	return tick
}

// watch installs a round hook that fires every `every` items and checks
// its watermark: it never goes backwards and never passes work that is
// queued or staged on any shard.
func (l *serialLoad) watch(every uint64) {
	l.g.SetRoundHook(every, func(safe Time) {
		if safe < l.safe {
			l.bad = append(l.bad, fmt.Sprintf("watermark went back from %d to %d", l.safe, safe))
		}
		l.safe = safe
		for _, e := range l.g.engines {
			if t, ok := e.nextTime(); ok && t < safe {
				l.bad = append(l.bad, fmt.Sprintf("watermark %d passed shard %d's work at %d", safe, e.shard, t))
			}
			for _, batch := range e.stage {
				for _, m := range batch {
					if m.at < safe {
						l.bad = append(l.bad, fmt.Sprintf("watermark %d passed a staged message at %d", safe, m.at))
					}
				}
			}
		}
	})
}

// check fails the test unless every station logged what the 1-shard
// run's did, no item ran behind a watermark, and no watermark passed
// pending work.
func (l *serialLoad) check(t *testing.T, what string, want [][]serialLine) {
	t.Helper()
	for i, s := range l.st {
		if s.early > 0 {
			t.Errorf("%s: station %d ran %d items behind the hook's watermark", what, i, s.early)
		}
		if len(s.log) != len(want[i]) {
			t.Fatalf("%s: station %d logged %d steps, 1-shard run %d", what, i, len(s.log), len(want[i]))
		}
		for k := range s.log {
			if s.log[k] != want[i][k] {
				t.Fatalf("%s: station %d step %d is %+v, 1-shard run %+v", what, i, k, s.log[k], want[i][k])
			}
		}
	}
	for _, b := range l.bad {
		t.Errorf("%s: %s", what, b)
	}
}

// modes reports how many items ran in serial stretches and in rounds.
func (l *serialLoad) modes() (serial, rounds int) {
	for _, s := range l.st {
		serial += s.serial
		rounds += s.rounds
	}
	return serial, rounds
}

// logs returns every station's log.
func (l *serialLoad) logs() [][]serialLine {
	out := make([][]serialLine, len(l.st))
	for i, s := range l.st {
		out[i] = s.log
	}
	return out
}

// serialBaseline runs the seed's load on one shard.
func serialBaseline(t *testing.T, seed uint64) [][]serialLine {
	t.Helper()
	l := newSerialLoad(NewGroup(1, 1), seed)
	l.watch(5)
	if err := l.g.Run(); err != nil {
		t.Fatalf("seed %d, 1 shard: %v", seed, err)
	}
	l.check(t, fmt.Sprintf("seed %d, 1 shard", seed), l.logs())
	return l.logs()
}

// TestGroupSerialMatchesOneShard is the differential: on random station
// graphs with lookahead from 1 ns to wide, and phases that switch
// between serial stretches and parallel rounds, every station runs the
// 1-shard schedule at 2, 3 and 4 shards. No causality violation fires
// (it would fail the run), the round hook's watermark never passes
// pending work, and both modes run.
func TestGroupSerialMatchesOneShard(t *testing.T) {
	wentParallel := map[int]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		want := serialBaseline(t, seed)
		for shards := 2; shards <= 4; shards++ {
			what := fmt.Sprintf("seed %d, %d shards", seed, shards)
			before := runtime.NumGoroutine()
			l := newSerialLoad(NewGroup(1, shards), seed)
			l.watch(5)
			if err := l.g.Run(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			l.check(t, what, want)
			if serial, rounds := l.modes(); serial == 0 || rounds == 0 {
				t.Errorf("%s: %d items in serial stretches, %d in rounds; want both", what, serial, rounds)
			}
			wentParallel[shards] = wentParallel[shards] || l.g.bar.epoch.Load() > 0
			expectGoroutines(t, l.g.Alive(), before)
		}
	}
	// A graph whose lookahead is much wider one way than the other can
	// leave one shard so far ahead that no round has two windows; the
	// seeds together must still reach the round workers.
	for shards := 2; shards <= 4; shards++ {
		if !wentParallel[shards] {
			t.Errorf("%d shards: no round went to the round workers on any seed", shards)
		}
	}
}

// TestGroupSerialStopAndDeadline: a run cut into deadline slices, which
// stop it in serial stretches and in parallel rounds, ends with the
// uninterrupted 1-shard logs and leaves no round worker behind.
func TestGroupSerialStopAndDeadline(t *testing.T) {
	const seed = 4
	want := serialBaseline(t, seed)
	for shards := 1; shards <= 4; shards++ {
		before := runtime.NumGoroutine()
		l := newSerialLoad(NewGroup(1, shards), seed)
		l.watch(5)
		slices := 0
		for ; l.g.Pending() > 0; slices++ {
			if err := l.g.RunUntil(Time(slices+1) * 137); err != nil {
				t.Fatalf("%d shards, slice %d: %v", shards, slices, err)
			}
			expectGoroutines(t, l.g.Alive(), before)
		}
		if slices < serialEnd/137 {
			t.Fatalf("%d shards: drained in %d slices, want at least %d", shards, slices, serialEnd/137)
		}
		l.check(t, fmt.Sprintf("%d shards in slices", shards), want)
	}
}

// TestGroupSerialPanicNamesShard: a process that panics in a serial
// stretch or in a parallel round fails the run with an error that names
// the process and its shard.
func TestGroupSerialPanicNamesShard(t *testing.T) {
	for shards := 1; shards <= 4; shards++ {
		for _, station := range []int{0, serialStations - 1} {
			for _, at := range []Time{40, 600} { // heavy phase, light phase
				before := runtime.NumGoroutine()
				l := newSerialLoad(NewGroup(1, shards), 5)
				e := l.st[station].e
				e.Spawn("victim", func(p *Proc) {
					p.SleepUntil(at)
					panic("boom")
				})
				err := l.g.Run()
				want := fmt.Sprintf(`process "victim" on shard %d panicked: boom`, e.Shard())
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%d shards, station %d, t=%d: Run() = %v, want %q", shards, station, at, err, want)
				}
				expectGoroutines(t, l.g.Alive(), before)
			}
		}
	}
}

// TestGroupSerialStall: a process left blocked when the load drains is
// reported as ErrStalled with its shard and park time, at every shard
// count.
func TestGroupSerialStall(t *testing.T) {
	for shards := 1; shards <= 4; shards++ {
		l := newSerialLoad(NewGroup(1, shards), 6)
		e := l.st[serialStations-1].e
		never := NewCompletion(e)
		e.Spawn("waiter", func(p *Proc) {
			p.SleepUntil(700)
			never.Wait(p)
		})
		err := l.g.Run()
		want := fmt.Sprintf(`(1 blocked: "waiter" on shard %d parked at 700ns)`, e.Shard())
		if !errors.Is(err, ErrStalled) || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("%d shards: Run() = %v, want ErrStalled ending in %q", shards, err, want)
		}
	}
}
