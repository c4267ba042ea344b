package linearize

import (
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/trace"
)

// sgen builds well-formed merged event streams for the online/batch
// differential: every event gets a strictly increasing timestamp, so
// the generated slice IS its own canonical merge, and per-node
// invocation sequences are maintained the way the HIB does.
type sgen struct {
	t    int64
	seq  []uint64
	evs  []trace.Event
	rand uint64
}

func newSgen(nodes int, seed uint64) *sgen {
	return &sgen{seq: make([]uint64, nodes), rand: seed*0x9E3779B97F4A7C15 + 1}
}

// rng is a splitmix64 step — the tests need deterministic variety, not
// statistical quality.
func (g *sgen) rng() uint64 {
	g.rand += 0x9E3779B97F4A7C15
	z := g.rand
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *sgen) intn(n int) int { return int(g.rng() % uint64(n)) }

func (g *sgen) ev(node int, kind trace.EventKind, addr, val, aux uint64) {
	g.t++
	g.evs = append(g.evs, trace.Event{At: g.t, Node: node, Kind: kind, Addr: addr, Val: val, Aux: aux})
}

func (g *sgen) gaddr(home int, off uint64) uint64 {
	return uint64(addrspace.NewGAddr(addrspace.NodeID(home), off))
}

// invoke opens a word op and returns the per-node sequence for pairing.
func (g *sgen) invoke(node int, bop trace.BoundaryOp, addr, arg uint64) uint64 {
	g.seq[node]++
	s := g.seq[node]
	g.ev(node, trace.EvOpInvoke, addr, arg, trace.BoundaryAux(bop, s))
	return s
}

func (g *sgen) ret(node int, bop trace.BoundaryOp, seq, addr, ret uint64) {
	g.ev(node, trace.EvOpReturn, addr, ret, trace.BoundaryAux(bop, seq))
}

// localWrite emits invoke + self-apply + return (the complete local
// store shape: effect precedes the latch).
func (g *sgen) localWrite(node int, off, val uint64) {
	a := g.gaddr(node, off)
	s := g.invoke(node, trace.BOpWrite, a, val)
	g.ev(node, trace.EvWriteApply, a, val, uint64(node))
	g.ret(node, trace.BOpWrite, s, a, 0)
}

// remoteWrite emits invoke + return and hands back the apply the caller
// schedules later (or drops, leaving the write pending).
func (g *sgen) remoteWrite(node, home int, off, val uint64) func() {
	a := g.gaddr(home, off)
	s := g.invoke(node, trace.BOpWrite, a, val)
	g.ret(node, trace.BOpWrite, s, a, 0)
	return func() { g.ev(home, trace.EvWriteApply, a, val, uint64(node)) }
}

func (g *sgen) read(node, home int, off, ret uint64) {
	a := g.gaddr(home, off)
	s := g.invoke(node, trace.BOpRead, a, 0)
	g.ret(node, trace.BOpRead, s, a, ret)
}

func (g *sgen) atomic(node, home int, bop trace.BoundaryOp, off, arg, arg2, ret uint64) {
	a := g.gaddr(home, off)
	s := g.invoke(node, bop, a, arg)
	if bop == trace.BOpCompareSwap {
		g.ev(node, trace.EvOpArg, a, arg2, trace.BoundaryAux(bop, s))
	}
	g.ret(node, bop, s, a, ret)
}

func (g *sgen) fence(node int, outstanding uint64) {
	g.ev(node, trace.EvFenceStart, 0, 0, 0)
	g.ev(node, trace.EvFenceEnd, 0, outstanding, 0)
}

// feedOnline streams evs into a fresh Online, advancing every cadence
// events (0 = only at the end), and finishes it.
func feedOnline(evs []trace.Event, cadence int, locs map[uint64]bool) *Online {
	o := NewOnline()
	o.RestrictLocs(locs)
	for i, e := range evs {
		o.Append(e)
		if cadence > 0 && (i+1)%cadence == 0 {
			// Strictly increasing times make "everything so far" safe.
			o.Advance(e.At + 1)
		}
	}
	o.Finish()
	return o
}

// requireAgreement feeds the stream at several drain cadences and
// demands every online verdict match the batch checkers'.
func requireAgreement(t *testing.T, evs []trace.Event, locs map[uint64]bool, label string) {
	t.Helper()
	for _, cadence := range []int{0, 1, 3, 16, 128} {
		o := feedOnline(evs, cadence, locs)
		if err := o.AgreesWithBatch(evs); err != nil {
			t.Errorf("%s cadence=%d: %v\nonline: %v %v",
				label, cadence, err, o.Violations(), o.FenceViolations())
		}
	}
}

// TestOnlineHealthyLocalWrites: a serial single-writer stream is
// linearizable at every cadence.
func TestOnlineHealthyLocalWrites(t *testing.T) {
	g := newSgen(2, 1)
	for i := 1; i <= 20; i++ {
		g.localWrite(0, 8, uint64(i))
		g.read(0, 0, 8, uint64(i))
	}
	requireAgreement(t, g.evs, nil, "healthy-local")
	o := feedOnline(g.evs, 4, nil)
	if o.Stats().Ops == 0 || o.Stats().Windows == 0 {
		t.Fatalf("stats not accumulated: %+v", o.Stats())
	}
	if o.Stats().PeakWindow >= 40 {
		t.Errorf("peak window %d: frequent cuts should keep windows small", o.Stats().PeakWindow)
	}
}

// TestOnlineCatchesStaleRead: a read returning an overwritten value
// strictly after the overwrite completed must fail — online, at every
// cadence, exactly like batch.
func TestOnlineCatchesStaleRead(t *testing.T) {
	g := newSgen(2, 2)
	g.localWrite(0, 8, 1)
	g.localWrite(0, 8, 2)
	g.read(1, 0, 8, 1) // stale: 2 is the only legal return here
	requireAgreement(t, g.evs, nil, "stale-read")
	if o := feedOnline(g.evs, 1, nil); o.Err() == nil {
		t.Fatal("stale read not caught")
	}
}

// TestOnlineWindowComposition: two overlapping writes leave an ambiguous
// final state; a later read pins it. The second window's verdict depends
// on the carried state SET being exact — a single carried state would
// wrongly reject one of the two legal reads.
func TestOnlineWindowComposition(t *testing.T) {
	mk := func(readVal uint64) []trace.Event {
		g := newSgen(3, 3)
		// Overlapping remote writes from two nodes to the same home word:
		// invokes first, applies interleaved, so either order linearizes.
		a1 := g.remoteWrite(0, 2, 8, 10)
		a2 := g.remoteWrite(1, 2, 8, 20)
		a1()
		a2()
		g.read(0, 2, 8, readVal)
		return g.evs
	}
	for _, v := range []uint64{10, 20} {
		evs := mk(v)
		requireAgreement(t, evs, nil, "composition-legal")
		// Cut between the writes and the read: the window decision must
		// carry BOTH final states.
		o := NewOnline()
		for _, e := range evs[:len(evs)-2] {
			o.Append(e)
		}
		o.Advance(evs[len(evs)-2].At)
		for _, e := range evs[len(evs)-2:] {
			o.Append(e)
		}
		o.Finish()
		if o.Err() != nil {
			t.Errorf("read=%d rejected across a cut: %v", v, o.Err())
		}
	}
	evs := mk(30) // a value nobody wrote
	requireAgreement(t, evs, nil, "composition-illegal")
	if o := feedOnline(evs, 1, nil); o.Err() == nil {
		t.Fatal("impossible read not caught across windows")
	}
}

// TestOnlineRestrictLocs: violations on a restricted-away location are
// invisible; the checked location still is checked.
func TestOnlineRestrictLocs(t *testing.T) {
	g := newSgen(2, 4)
	g.localWrite(0, 8, 1)
	g.read(1, 0, 8, 99) // violation on word 8
	g.localWrite(0, 16, 2)
	g.read(1, 0, 16, 2)
	okLoc := map[uint64]bool{g.gaddr(0, 16): true}
	if o := feedOnline(g.evs, 2, okLoc); o.Err() != nil {
		t.Fatalf("restricted run flagged the excluded word: %v", o.Err())
	}
	badLoc := map[uint64]bool{g.gaddr(0, 8): true}
	if o := feedOnline(g.evs, 2, badLoc); o.Err() == nil {
		t.Fatal("restricted run missed the included word's violation")
	}
}

// TestOnlinePendingWrite: a remote write whose apply never arrives is
// pending — it may linearize (a read of its value is legal) or not (a
// read of the prior value is legal too); a read of neither is not.
func TestOnlinePendingWrite(t *testing.T) {
	for _, readVal := range []uint64{0, 7, 99} {
		g := newSgen(2, 5)
		g.remoteWrite(0, 1, 8, 7) // apply dropped
		g.read(0, 1, 8, readVal)
		requireAgreement(t, g.evs, nil, "pending-write")
	}
}

// TestOnlineFenceContract covers the three fence properties online vs
// batch: counter not drained, pre-fence effect after completion, and a
// pre-fence write that never takes effect.
func TestOnlineFenceContract(t *testing.T) {
	// Healthy: write applies before the fence ends.
	g := newSgen(2, 6)
	ap := g.remoteWrite(0, 1, 8, 1)
	ap()
	g.fence(0, 0)
	requireAgreement(t, g.evs, nil, "fence-healthy")

	// Counter not drained.
	g = newSgen(2, 7)
	ap = g.remoteWrite(0, 1, 8, 1)
	ap()
	g.fence(0, 3)
	requireAgreement(t, g.evs, nil, "fence-counter")
	if o := feedOnline(g.evs, 1, nil); len(o.FenceViolations()) == 0 {
		t.Fatal("undrained counter not caught")
	}

	// Pre-fence write applies after the fence completed.
	g = newSgen(2, 8)
	ap = g.remoteWrite(0, 1, 8, 1)
	g.fence(0, 0)
	ap()
	requireAgreement(t, g.evs, nil, "fence-late-effect")
	if o := feedOnline(g.evs, 1, nil); len(o.FenceViolations()) == 0 {
		t.Fatal("late pre-fence effect not caught")
	}

	// Pre-fence write never takes effect at all (caught at Finish).
	g = newSgen(2, 9)
	g.remoteWrite(0, 1, 8, 1)
	g.fence(0, 0)
	requireAgreement(t, g.evs, nil, "fence-pending-write")
	if o := feedOnline(g.evs, 16, nil); len(o.FenceViolations()) == 0 {
		t.Fatal("never-applied pre-fence write not caught")
	}

	// An unfinished fence is outside the contract.
	g = newSgen(2, 10)
	ap = g.remoteWrite(0, 1, 8, 1)
	ap()
	g.ev(0, trace.EvFenceStart, 0, 0, 0) // no end
	requireAgreement(t, g.evs, nil, "fence-unfinished")
}

// TestOnlineFenceRetirement: fences whose pre-writes all completed and
// whose watermark has passed must be freed; violations found before
// retirement must survive it.
func TestOnlineFenceRetirement(t *testing.T) {
	g := newSgen(2, 11)
	for i := 0; i < 50; i++ {
		ap := g.remoteWrite(0, 1, 8, uint64(i+1))
		ap()
		g.fence(0, 0)
	}
	o := feedOnline(g.evs, 8, nil)
	if len(o.FenceViolations()) != 0 {
		t.Fatalf("healthy fences flagged: %v", o.FenceViolations()[0])
	}
	for _, fp := range o.fences.procList {
		if len(fp.fences) > 2 {
			t.Errorf("proc %d retains %d fences after retirement watermarks", fp.proc, len(fp.fences))
		}
	}
}

// TestOnlineRandomDifferential: randomized multi-node programs — mixed
// local/remote writes with delayed, reordered, or dropped applies,
// reads echoing plausible (often wrong) values, atomics, fences with
// occasionally wrong counters — must get the same verdict from the
// online checker at every cadence as from the batch pipeline. A second
// arm lets half the remote writes take effect by the owner's update
// serialization (coherent region) instead of an apply at the home, so
// writes also complete while another effect queue still holds them.
func TestOnlineRandomDifferential(t *testing.T) {
	for _, coherent := range []bool{false, true} {
		for seed := uint64(0); seed < 60; seed++ {
			requireAgreement(t, randomStream(seed, coherent), nil, "random")
			if t.Failed() {
				t.Fatalf("seed %d (coherent %v) diverged", seed, coherent)
			}
		}
	}
}

// randomStream generates TestOnlineRandomDifferential's program for
// seed; with coherent, a remote write's effect is an apply at the home
// or a serialization at the owner, by coin flip.
func randomStream(seed uint64, coherent bool) []trace.Event {
	g := newSgen(4, 100+seed)
	var applies []func()
	var lastVals [2]uint64
	for step := 0; step < 30; step++ {
		node := g.intn(4)
		off := uint64(8 + 8*g.intn(2))
		w := off/8 - 1
		switch g.intn(10) {
		case 0, 1:
			v := g.rng()%5 + 1
			g.localWrite(node, off, v)
			lastVals[w] = v
		case 2, 3:
			v := g.rng()%5 + 1
			home := g.intn(4)
			ap := g.remoteWrite(node, home, off, v)
			if coherent && g.intn(2) == 0 {
				ap = func() { g.ev(home, trace.EvUpdateSerialize, off, v, uint64(node)) }
			}
			lastVals[w] = v
			if g.intn(10) != 0 { // 10%: dropped apply (pending write)
				applies = append(applies, ap)
			}
		case 4, 5, 6:
			g.read(node, g.intn(4), off, lastVals[w]) // plausibly legal
		case 7:
			g.read(node, g.intn(4), off, g.rng()%4) // often illegal
		case 8:
			bops := []trace.BoundaryOp{trace.BOpFetchInc, trace.BOpFetchStore, trace.BOpCompareSwap}
			g.atomic(node, g.intn(4), bops[g.intn(3)], off, g.rng()%4, g.rng()%4, g.rng()%4)
		case 9:
			g.fence(node, uint64(g.intn(3)&1)) // sometimes undrained
		}
		// Flush a delayed apply now and then, out of issue order.
		if len(applies) > 0 && g.intn(3) == 0 {
			i := g.intn(len(applies))
			applies[i]()
			applies = append(applies[:i], applies[i+1:]...)
		}
	}
	for _, ap := range applies {
		ap()
	}
	return g.evs
}

// TestOnlineIdempotentFinish: Finish twice is safe, and verdicts do not
// change after it.
func TestOnlineIdempotentFinish(t *testing.T) {
	g := newSgen(2, 12)
	g.localWrite(0, 8, 1)
	g.read(1, 0, 8, 1)
	o := feedOnline(g.evs, 0, nil)
	n := len(o.Violations())
	o.Finish()
	if len(o.Violations()) != n {
		t.Fatal("second Finish changed the verdict")
	}
}

// TestFromTraceSkipsPageIn: BOpPageIn boundary events are observability
// only and never become operations.
func TestFromTraceSkipsPageIn(t *testing.T) {
	g := newSgen(1, 13)
	s := g.invoke(0, trace.BOpPageIn, g.gaddr(0, 4096), 0)
	g.ret(0, trace.BOpPageIn, s, g.gaddr(0, 4096), 0)
	g.localWrite(0, 8, 1)
	h := FromTrace(g.evs)
	if len(h.Ops) != 1 || h.Ops[0].Kind != Write {
		t.Fatalf("page-in leaked into the history: %v", h.Ops)
	}
	if o := feedOnline(g.evs, 1, nil); o.Err() != nil {
		t.Fatalf("page-in broke the online checker: %v", o.Err())
	}
}

// TestOnlineFinishResolvesEveryOpenOp: Finish resolves every operation
// still open at the end of the stream, however many there are. Twenty
// reads that never return precede twenty remote writes that never take
// effect and a fence after them; the fence's violation hinges on the
// later writes, which Finish reaches only after resolving more than
// half of its open records.
func TestOnlineFinishResolvesEveryOpenOp(t *testing.T) {
	g := newSgen(2, 14)
	for i := 0; i < 20; i++ {
		g.invoke(1, trace.BOpRead, g.gaddr(0, 16), 0)
	}
	for i := 0; i < 20; i++ {
		g.remoteWrite(0, 1, 8, uint64(i+1)) // apply dropped
	}
	g.fence(0, 0)
	requireAgreement(t, g.evs, nil, "open at end")
	if o := feedOnline(g.evs, 0, nil); len(o.FenceViolations()) != 20 {
		t.Fatalf("%d fence violations, want one per pending pre-fence write (20)", len(o.FenceViolations()))
	}
}

// TestOnlineRecordAllocs: in steady state the online checker's history
// builder and fence bookkeeping allocate nothing per operation —
// operation and fence records are recycled and the effect queues are
// intrusive lists. The stream mixes remote writes (invoke, return,
// apply at the home), reads and fences over two nodes, with a watermark
// after every round so fences retire. Location checking is restricted
// away: deciding a window searches its linearizations, which allocates
// per window by design and is not what this test pins.
func TestOnlineRecordAllocs(t *testing.T) {
	o := NewOnline()
	o.RestrictLocs(map[uint64]bool{})
	var at int64
	var seq [2]uint64
	ev := func(node int, kind trace.EventKind, addr, val, aux uint64) {
		at++
		o.Append(trace.Event{At: at, Node: node, Kind: kind, Addr: addr, Val: val, Aux: aux})
	}
	var v uint64
	round := func() {
		for node := 0; node < 2; node++ {
			home := 1 - node
			a := uint64(addrspace.NewGAddr(addrspace.NodeID(home), 8*(v%4)))
			v++
			seq[node]++
			ev(node, trace.EvOpInvoke, a, v, trace.BoundaryAux(trace.BOpWrite, seq[node]))
			ev(node, trace.EvOpReturn, a, 0, trace.BoundaryAux(trace.BOpWrite, seq[node]))
			ev(home, trace.EvWriteApply, a, v, uint64(node))
			seq[node]++
			ev(node, trace.EvOpInvoke, a, 0, trace.BoundaryAux(trace.BOpRead, seq[node]))
			ev(node, trace.EvOpReturn, a, v, trace.BoundaryAux(trace.BOpRead, seq[node]))
			ev(node, trace.EvFenceStart, 0, 0, 0)
			ev(node, trace.EvFenceEnd, 0, 0, 0)
		}
		o.Advance(at + 1)
	}
	for i := 0; i < 200; i++ { // warm maps, slices and free lists
		round()
	}
	if a := testing.AllocsPerRun(500, round); a != 0 {
		t.Fatalf("%v allocations per round of 6 operations, want 0", a)
	}
	o.Finish()
	if err := o.Err(); err != nil {
		t.Fatalf("healthy stream flagged: %v", err)
	}
	if got := o.Stats().Ops; got != 701*6 {
		t.Fatalf("%d operations completed, want %d", got, 701*6)
	}
}

// TestOnlineRecycledRecordLeavesNoQueue: a write that completes by one
// effect must leave the other effect's queue before its record is
// recycled. A coherent write completes by serialization while its apply
// key is still queued; enough reads follow that its record is reused;
// then a second write with the same apply key takes effect before a
// fence. A stale queue entry would hand that apply to the reused record
// and leave the second write pending, failing the fence.
func TestOnlineRecycledRecordLeavesNoQueue(t *testing.T) {
	g := newSgen(2, 15)
	a := g.gaddr(1, 8)
	s := g.invoke(0, trace.BOpWrite, a, 1)
	g.ret(0, trace.BOpWrite, s, a, 0)
	g.ev(1, trace.EvUpdateSerialize, 8, 1, 0)
	for i := 0; i < 80; i++ {
		g.read(1, 1, 16, 0)
	}
	g.remoteWrite(0, 1, 8, 1)()
	g.fence(0, 0)
	requireAgreement(t, g.evs, nil, "recycled")
	if o := feedOnline(g.evs, 0, nil); o.Err() != nil {
		t.Fatalf("healthy stream flagged: %v", o.Err())
	}
}
