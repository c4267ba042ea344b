package trace

import (
	"hash/fnv"
	"sort"
	"testing"

	"telegraphos/internal/sim"
)

// refHash is the batch fingerprint, computed with hash/fnv (the stdlib
// implementation) rather than FoldHash — an independent oracle.
func refHash(events []Event) uint64 {
	h := fnv.New64a()
	var buf [8 * 5]byte
	for _, e := range events {
		put64(buf[0:], uint64(e.At))
		put64(buf[8:], uint64(e.Node)<<8|uint64(e.Kind))
		put64(buf[16:], e.Addr)
		put64(buf[24:], e.Val)
		put64(buf[32:], e.Aux)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// refMerge is the batch definition of the canonical order: concatenate
// per-node streams in node order, stable-sort by At.
func refMerge(streams [][]Event) []Event {
	var all []Event
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// genStreams builds random per-node event streams with nondecreasing
// per-node timestamps and plenty of cross-node ties.
func genStreams(rng *sim.RNG, nodes, maxLen int) [][]Event {
	streams := make([][]Event, nodes)
	for n := range streams {
		ln := rng.Intn(maxLen + 1)
		at := int64(rng.Intn(4))
		for i := 0; i < ln; i++ {
			at += int64(rng.Intn(3)) // frequent ties, within and across nodes
			streams[n] = append(streams[n], Event{
				At:   at,
				Node: n,
				Kind: EventKind(1 + rng.Intn(int(EvOpArg))),
				Addr: rng.Uint64(),
				Val:  rng.Uint64(),
				Aux:  rng.Uint64(),
			})
		}
	}
	return streams
}

func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWindowedDrainMatchesBatch drains random streams through a
// WindowedLog at random watermark cadences and checks the delivered
// sequence, hash, and counts against the batch reference (refMerge, refHash).
func TestWindowedDrainMatchesBatch(t *testing.T) {
	rng := sim.ForkRNG(11, "test/windowed-differential")
	for trial := 0; trial < 200; trial++ {
		nodes := 1 + rng.Intn(9)
		streams := genStreams(rng, nodes, 60)
		want := refMerge(streams)

		// Tiny windows force ring wraps and growth.
		w := NewWindowedLog(nodes, 1+rng.Intn(8))
		got := NewEventLog()
		w.AddSink(got)
		recs := make([]func(Event), nodes)
		for n := range recs {
			recs[n] = w.Recorder(n)
		}
		// Feed in rounds of a random time span, draining after each
		// round at the round's lower bound — mimicking barrier rounds
		// with a safe watermark.
		cur := make([]int, nodes)
		for lo := int64(0); ; lo += int64(1 + rng.Intn(5)) {
			fed := false
			for n, s := range streams {
				for cur[n] < len(s) && s[cur[n]].At < lo {
					recs[n](s[cur[n]])
					cur[n]++
					fed = true
				}
			}
			if _, err := w.Drain(lo); err != nil {
				t.Fatal(err)
			}
			done := true
			for n, s := range streams {
				if cur[n] < len(s) {
					done = false
				}
			}
			if done && !fed {
				break
			}
		}
		if _, err := w.DrainAll(); err != nil {
			t.Fatal(err)
		}
		if !eventsEqual(got.Events(), want) {
			t.Fatalf("trial %d: windowed drain sequence diverges from batch merge", trial)
		}
		if w.Hash() != refHash(want) {
			t.Fatalf("trial %d: windowed hash %#x != batch fnv hash %#x", trial, w.Hash(), refHash(want))
		}
		if int(w.Merged()) != len(want) {
			t.Fatalf("trial %d: merged count %d != %d", trial, w.Merged(), len(want))
		}
		if w.Resident() != 0 {
			t.Fatalf("trial %d: %d events still resident after DrainAll", trial, w.Resident())
		}
	}
}

// TestWindowedDrainCadenceInvariant checks the final hash does not
// depend on when drains happen.
func TestWindowedDrainCadenceInvariant(t *testing.T) {
	rng := sim.ForkRNG(13, "test/windowed-cadence")
	streams := genStreams(rng, 6, 80)
	run := func(every int) uint64 {
		w := NewWindowedLog(6, 4)
		recs := make([]func(Event), 6)
		for n := range recs {
			recs[n] = w.Recorder(n)
		}
		cur := make([]int, 6)
		for lo := int64(0); ; lo += int64(every) {
			rem := false
			for n, s := range streams {
				for cur[n] < len(s) && s[cur[n]].At < lo {
					recs[n](s[cur[n]])
					cur[n]++
				}
				if cur[n] < len(s) {
					rem = true
				}
			}
			if _, err := w.Drain(lo); err != nil {
				t.Fatal(err)
			}
			if !rem {
				break
			}
		}
		if _, err := w.DrainAll(); err != nil {
			t.Fatal(err)
		}
		return w.Hash()
	}
	want := run(1)
	for _, every := range []int{2, 3, 7, 50, 1000} {
		if got := run(every); got != want {
			t.Fatalf("drain cadence %d changed the hash: %#x != %#x", every, got, want)
		}
	}
}

// TestWindowedResidencyBounded checks MaxResident tracks the window,
// not the event count, when drains keep up.
func TestWindowedResidencyBounded(t *testing.T) {
	const nodes, window, total = 4, 16, 100000
	w := NewWindowedLog(nodes, window)
	recs := make([]func(Event), nodes)
	for n := range recs {
		recs[n] = w.Recorder(n)
	}
	for i := 0; i < total; i++ {
		n := i % nodes
		recs[n](Event{At: int64(i), Node: n, Kind: EvWriteApply})
		if i%window == window-1 {
			if _, err := w.Drain(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := w.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if int(w.Merged()) != total {
		t.Fatalf("merged %d != %d", w.Merged(), total)
	}
	if max := w.MaxResident(); max > nodes*window {
		t.Fatalf("peak residency %d exceeds nodes*window = %d", max, nodes*window)
	}
}

// TestZeroValueEventLog keeps the zero value usable (some tests build
// logs by literal): empty, it reports no events and the FNV basis; after
// appends, its length, stream and incremental hash match the batch view.
func TestZeroValueEventLog(t *testing.T) {
	var l EventLog
	if l.Len() != 0 || len(l.Events()) != 0 || l.Hash() != HashInit {
		t.Fatalf("empty log: len %d, %d events, hash %#x; want 0, 0, HashInit", l.Len(), len(l.Events()), l.Hash())
	}
	want := []Event{
		{At: 1, Node: 0, Kind: EvIssue, Addr: 0x40},
		{At: 1, Node: 3, Kind: EvWriteApply, Addr: 0x40, Val: 7},
		{At: 9, Node: 1, Kind: EvOpArg, Aux: 2},
	}
	for _, e := range want {
		l.Append(e)
	}
	if l.Len() != len(want) || !eventsEqual(l.Events(), want) {
		t.Fatalf("zero-value log recorded %v, want %v", l.Events(), want)
	}
	if l.Hash() != refHash(want) {
		t.Fatalf("zero-value log hash %#x diverges from batch fnv %#x", l.Hash(), refHash(want))
	}
}

// TestWindowedAppendDrainAllocs is the 0-allocs gate on the steady
// state: ring append and drain (incremental hash included) must not
// allocate once the rings have warmed up.
func TestWindowedAppendDrainAllocs(t *testing.T) {
	const nodes, window = 4, 64
	w := NewWindowedLog(nodes, window)
	recs := make([]func(Event), nodes)
	for n := range recs {
		recs[n] = w.Recorder(n)
	}
	var at int64
	fill := func() {
		for i := 0; i < nodes*window/2; i++ {
			n := i % nodes
			at++
			recs[n](Event{At: at, Node: n, Kind: EvWriteApply, Addr: 64, Val: uint64(at)})
		}
	}
	fill()
	if _, err := w.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		fill()
		if _, err := w.Drain(at + 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state append+drain allocates %.1f allocs/run, want 0", avg)
	}
}

func BenchmarkWindowedAppendDrain(b *testing.B) {
	const nodes = 8
	w := NewWindowedLog(nodes, DefaultWindow)
	recs := make([]func(Event), nodes)
	for n := range recs {
		recs[n] = w.Recorder(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var at int64
	for i := 0; i < b.N; i++ {
		n := i % nodes
		at++
		recs[n](Event{At: at, Node: n, Kind: EvWriteApply, Addr: 64, Val: uint64(at)})
		if i%(nodes*DefaultWindow/2) == 0 {
			w.Drain(at + 1)
		}
	}
	w.DrainAll()
}
