package linearize

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/trace"
)

// The history builder reconstructs operation intervals from a merged
// event stream (canonical trace order: ascending time, per-node order
// intact). It is written as an incremental consumer — feed one event at
// a time — so the same pairing logic serves both the batch FromTrace
// snapshot and the windowed Online checker; the two cannot drift apart.
//
// Boundary events pair by (node, sequence): EvOpInvoke opens an interval,
// EvOpReturn closes it, EvOpArg attaches the compare&swap comparand.
// Blocking operations — reads, atomics — are done at their return. A
// write is done when both its return and its effect have been seen: the
// HIB releases the CPU at the latch (the return event) while the store
// may still be in flight, so its interval is stretched to the matching
// effect event — the EvWriteApply at the home node (plain region, local
// stores included: the HIB records the local apply explicitly) or the
// EvUpdateSerialize at the page owner (coherent region), matched by
// (address, value, origin) and consumed in invocation order. A write
// whose effect never appears in the stream resolves at the end of the
// stream: at its return if it was local (the latch is the effect for a
// write homed on the issuer), Pending otherwise.
//
// EvFenceStart/EvFenceEnd pairs become Fence ops (one at a time per
// node — the CPU blocks inside MEMORY_BARRIER), with Arg recording the
// outstanding-operation count the board saw at completion.
//
// BOpPageIn boundary events (DSM page transfers) are observability-only
// and are not part of the object model; they are skipped, as are the
// BOpBarrier/BOpReduce synchronization boundaries of the in-fabric
// collectives (internal/collective).

type pairKey struct {
	node int
	seq  uint64
}

type effectKey struct {
	addr   uint64 // full GAddr (apply) or bare offset (serialize)
	val    uint64
	origin int
}

// A write awaits one of two effects: the EvWriteApply at its home node
// (keyed by full GAddr) or the EvUpdateSerialize at the page owner
// (keyed by bare offset). It waits in one FIFO per effect and key.
const (
	qApply = iota
	qSerialize
	numEffectQs
)

// effectQueue is one (effect, key) FIFO of open writes, linked through
// brec.next so that queueing a write allocates nothing.
type effectQueue struct{ head, tail *brec }

// brec is one operation being assembled.
type brec struct {
	op       Op
	invSeq   uint64 // per-proc invocation sequence (fences included)
	retSeen  bool
	effSeen  bool
	done     bool
	retAt    int64
	effAt    int64
	isWrite  bool
	needsEff bool // remote write: return alone does not complete it
	key      [numEffectQs]effectKey
	next     [numEffectQs]*brec // successor in each effect queue
}

// histBuilder incrementally pairs events into operations. The moment an
// operation's response time is final it is emitted through the emit
// callback (completion order); finish resolves everything still open at
// the end of the stream — exactly the way the batch builder always
// resolved leftovers — and emits those too (Pending where the effect
// never arrived).
type histBuilder struct {
	open      map[pairKey]*brec
	effectQ   [numEffectQs]map[effectKey]effectQueue // open writes awaiting each effect
	fenceOpen map[int]*brec
	procSeq   map[int]uint64

	// invoke, when set, fires as each operation opens — word ops and
	// fences alike (the Op has Inv/Proc/Kind/Loc/Arg populated; Res not
	// yet known).
	invoke func(op Op, invSeq uint64)
	// emit fires once per operation, when its Res/Pending is final.
	emit func(op Op, invSeq uint64)

	// keepAll retains every record in creation order (batch mode).
	all     []*brec
	keepAll bool

	// live tracks not-yet-done records in creation order for finish;
	// compacted as records complete so streaming memory stays O(open).
	live  []*brec
	nDone int
	// free holds done records the compaction dropped (streaming mode
	// only); newRec reuses them. A done record is referenced by nothing
	// else: open, fenceOpen and the effect queues let go of it before
	// it completes.
	free []*brec
}

func newHistBuilder(keepAll bool) *histBuilder {
	return &histBuilder{
		open:      make(map[pairKey]*brec),
		effectQ:   [numEffectQs]map[effectKey]effectQueue{make(map[effectKey]effectQueue), make(map[effectKey]effectQueue)},
		fenceOpen: make(map[int]*brec),
		procSeq:   make(map[int]uint64),
		keepAll:   keepAll,
	}
}

// newRec returns a zeroed record, reusing a recycled one if possible.
func (b *histBuilder) newRec() *brec {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		return r
	}
	return new(brec)
}

func (b *histBuilder) track(r *brec) {
	if b.keepAll {
		b.all = append(b.all, r)
	}
	b.live = append(b.live, r)
}

// complete finalizes r's Op and emits it.
func (b *histBuilder) complete(r *brec) {
	r.done = true
	b.nDone++
	if r.isWrite {
		b.unqueue(qApply, r)
		b.unqueue(qSerialize, r)
	}
	if b.emit != nil {
		b.emit(r.op, r.invSeq)
	}
	if !b.keepAll && b.nDone > len(b.live)/2 && len(b.live) > 16 {
		kept := b.live[:0]
		for _, lr := range b.live {
			if !lr.done {
				kept = append(kept, lr)
			} else {
				*lr = brec{}
				b.free = append(b.free, lr)
			}
		}
		for i := len(kept); i < len(b.live); i++ {
			b.live[i] = nil
		}
		b.live = kept
		b.nDone = 0
	}
}

// enqueue appends an opening write to effect queue qi.
func (b *histBuilder) enqueue(qi int, r *brec) {
	q := b.effectQ[qi][r.key[qi]]
	if q.tail == nil {
		q.head = r
	} else {
		q.tail.next[qi] = r
	}
	q.tail = r
	b.effectQ[qi][r.key[qi]] = q
}

// unqueue drops a completed write from effect queue qi so queue length
// tracks in-flight writes, not history length.
func (b *histBuilder) unqueue(qi int, r *brec) {
	k := r.key[qi]
	q, ok := b.effectQ[qi][k]
	if !ok {
		return
	}
	var prev *brec
	for x := q.head; x != nil; prev, x = x, x.next[qi] {
		if x != r {
			continue
		}
		if prev == nil {
			q.head = x.next[qi]
		} else {
			prev.next[qi] = x.next[qi]
		}
		if q.tail == x {
			q.tail = prev
		}
		break
	}
	b.store(qi, k, q)
}

// pop consumes the oldest open write awaiting effect k on queue qi
// (skipping any that already matched — a second effect with the same
// key belongs to the next write in invocation order).
func (b *histBuilder) pop(qi int, k effectKey) *brec {
	q, ok := b.effectQ[qi][k]
	if !ok {
		return nil
	}
	var r *brec
	for q.head != nil && r == nil {
		if !q.head.effSeen {
			r = q.head
		}
		q.head = q.head.next[qi]
	}
	b.store(qi, k, q)
	return r
}

// store writes queue q back under key k of effect queue qi, dropping
// the key once the queue is empty.
func (b *histBuilder) store(qi int, k effectKey, q effectQueue) {
	if q.head == nil {
		delete(b.effectQ[qi], k)
	} else {
		b.effectQ[qi][k] = q
	}
}

// feed consumes one event of the merged stream.
func (b *histBuilder) feed(e trace.Event) {
	switch e.Kind {
	case trace.EvOpInvoke:
		bop, seq := trace.SplitBoundaryAux(e.Aux)
		if bop == trace.BOpPageIn || bop == trace.BOpBarrier || bop == trace.BOpReduce {
			return
		}
		g := addrspace.GAddr(e.Addr)
		b.procSeq[e.Node]++
		r := b.newRec()
		r.op = Op{
			Proc: e.Node,
			Kind: kindOfBoundary(bop),
			Loc:  e.Addr,
			Arg:  e.Val,
			Inv:  e.At,
		}
		r.invSeq = b.procSeq[e.Node]
		if bop == trace.BOpWrite {
			r.isWrite = true
			r.key[qApply] = effectKey{addr: e.Addr, val: e.Val, origin: e.Node}
			b.enqueue(qApply, r)
			r.key[qSerialize] = effectKey{addr: g.Offset(), val: e.Val, origin: e.Node}
			b.enqueue(qSerialize, r)
			// A write homed elsewhere is non-blocking: its return is the
			// latch, not the effect.
			r.needsEff = int(g.Node()) != e.Node
		}
		b.track(r)
		b.open[pairKey{e.Node, seq}] = r
		if b.invoke != nil {
			b.invoke(r.op, r.invSeq)
		}

	case trace.EvOpArg:
		_, seq := trace.SplitBoundaryAux(e.Aux)
		if r := b.open[pairKey{e.Node, seq}]; r != nil {
			r.op.Arg2 = e.Val
		}

	case trace.EvOpReturn:
		bop, seq := trace.SplitBoundaryAux(e.Aux)
		if bop == trace.BOpPageIn || bop == trace.BOpBarrier || bop == trace.BOpReduce {
			return
		}
		k := pairKey{e.Node, seq}
		if r := b.open[k]; r != nil {
			r.retSeen = true
			r.retAt = e.At
			r.op.Ret = e.Val
			delete(b.open, k)
			if !r.isWrite {
				r.op.Res = r.retAt
				b.complete(r)
			} else if r.effSeen {
				r.op.Res = r.effAt
				if r.retAt > r.op.Res {
					r.op.Res = r.retAt
				}
				b.complete(r)
			}
		}

	case trace.EvWriteApply:
		b.effect(qApply, effectKey{addr: e.Addr, val: e.Val, origin: int(e.Aux)}, e.At)

	case trace.EvUpdateSerialize:
		b.effect(qSerialize, effectKey{addr: e.Addr, val: e.Val, origin: int(e.Aux)}, e.At)

	case trace.EvFenceStart:
		b.procSeq[e.Node]++
		r := b.newRec()
		r.op = Op{Proc: e.Node, Kind: Fence, Inv: e.At}
		r.invSeq = b.procSeq[e.Node]
		b.track(r)
		b.fenceOpen[e.Node] = r
		if b.invoke != nil {
			b.invoke(r.op, r.invSeq)
		}

	case trace.EvFenceEnd:
		if r := b.fenceOpen[e.Node]; r != nil {
			r.retSeen = true
			r.retAt = e.At
			r.op.Arg = e.Val // outstanding count at completion
			r.op.Res = e.At
			delete(b.fenceOpen, e.Node)
			b.complete(r)
		}
	}
}

// effect matches one apply/serialize event against the oldest awaiting
// write.
func (b *histBuilder) effect(qi int, k effectKey, at int64) {
	r := b.pop(qi, k)
	if r == nil {
		return
	}
	r.effSeen = true
	r.effAt = at
	if r.retSeen {
		r.op.Res = r.effAt
		if r.retAt > r.op.Res {
			r.op.Res = r.retAt
		}
		b.complete(r)
	}
}

// finish resolves every record still open at the end of the stream and
// emits it. The resolution mirrors what the batch builder always did:
// an observed effect ends the interval even with no return; a returned
// local write ends at its latch; anything else is Pending. The records
// are detached from live first, so complete cannot compact the slice
// this loop walks.
func (b *histBuilder) finish() {
	live := b.live
	b.live = nil
	for _, r := range live {
		if r == nil || r.done {
			continue
		}
		switch {
		case r.effSeen:
			r.op.Res = r.effAt
			if r.retSeen && r.retAt > r.op.Res {
				r.op.Res = r.retAt
			}
		case r.retSeen && !r.needsEff:
			r.op.Res = r.retAt
		default:
			r.op.Pending = true
		}
		b.complete(r)
	}
}

// FromTrace reconstructs a full operation history from a merged event
// stream — the batch entry point, used by offline checks and as the
// reference the online checker is differentially tested against.
func FromTrace(events []trace.Event) *History {
	b := newHistBuilder(true)
	for _, e := range events {
		b.feed(e)
	}
	b.finish()
	h := &History{Ops: make([]Op, 0, len(b.all))}
	for _, r := range b.all {
		h.Ops = append(h.Ops, r.op)
	}
	return h
}

// kindOfBoundary maps a trace boundary op onto the history's object model.
func kindOfBoundary(b trace.BoundaryOp) Kind {
	switch b {
	case trace.BOpRead:
		return Read
	case trace.BOpWrite:
		return Write
	case trace.BOpFetchInc:
		return FetchInc
	case trace.BOpFetchStore:
		return FetchStore
	case trace.BOpCompareSwap:
		return CompareSwap
	default:
		return Read
	}
}
