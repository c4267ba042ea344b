package simtest

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/consistency"
	"telegraphos/internal/trace"
)

// checkOne appends one formatted violation.
func checkOne(vs *[]Violation, inv, format string, args ...any) {
	*vs = append(*vs, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// streamAcc is the invariant accumulator: a trace.Sink on the merged
// stream that folds the event-derived facts the checkers need — last
// serialized value per coherent word, apply/serialize times per issued
// value, plain-region apply counts — as events stream past, instead of
// rescanning a retained log after the run. Everything it stores is
// bounded by the scenario's issue tallies (values drawn at build time),
// not by the event count.
type streamAcc struct {
	h *harness

	lastSerial   map[uint64]uint64  // coherent offset → last serialized value
	serialAt     map[uint64]int64   // issued coherent value → first serialize time
	applyAt      map[uint64][]int64 // issued plain/multicast value → remote-apply times
	plainApplied map[uint64]int     // value → applies at the plain region
	plainLast    map[int]uint64     // plain word → last applied value
	plainAddr    map[uint64]int     // plain global address → word index
	vios         []Violation        // provenance violations observed in-stream
}

func newStreamAcc(h *harness) *streamAcc {
	a := &streamAcc{
		h:            h,
		lastSerial:   make(map[uint64]uint64),
		serialAt:     make(map[uint64]int64),
		applyAt:      make(map[uint64][]int64),
		plainApplied: make(map[uint64]int),
		plainLast:    make(map[int]uint64),
		plainAddr:    make(map[uint64]int, h.sc.PlainWords),
	}
	plainOff := h.c.SharedOffset(h.plainVA.va)
	home := addrspace.NodeID(h.plainVA.home)
	for w := 0; w < h.sc.PlainWords; w++ {
		a.plainAddr[uint64(addrspace.NewGAddr(home, plainOff+8*uint64(w)))] = w
	}
	return a
}

// Append consumes one merged-stream event (trace.Sink).
func (a *streamAcc) Append(e trace.Event) {
	switch e.Kind {
	case trace.EvUpdateSerialize:
		a.lastSerial[e.Addr] = e.Val
		if _, issued := a.h.cohVals[e.Val]; issued {
			if _, seen := a.serialAt[e.Val]; !seen {
				a.serialAt[e.Val] = e.At
			}
		}
	case trace.EvWriteApply:
		// The issuer's own local apply (origin == the address's home)
		// closes the write's interval for the history builder but is not
		// a delivery; the delivery tallies count remote applies only.
		if addrspace.GAddr(e.Addr).Node() == addrspace.NodeID(e.Aux) {
			return
		}
		_, mc := a.h.mcVals[e.Val]
		_, pl := a.h.plainVals[e.Val]
		if mc || pl {
			a.applyAt[e.Val] = append(a.applyAt[e.Val], e.At)
		}
		if w, ok := a.plainAddr[e.Addr]; ok {
			a.plainApplied[e.Val]++
			a.plainLast[w] = e.Val
			if !pl {
				a.vios = append(a.vios, Violation{
					Invariant: "value-provenance",
					Detail:    fmt.Sprintf("plain word %d received %#x, which no program wrote", w, e.Val),
				})
			}
		}
	}
}

// checkInvariants walks the final cluster state and the facts
// accumulated from the stream after a quiesced run and returns every
// violated property.
func (h *harness) checkInvariants() []Violation {
	var vs []Violation
	for _, ns := range h.perNode {
		vs = append(vs, ns.violations...)
	}
	vs = append(vs, h.acc.vios...)
	vs = append(vs, h.extraVios...)
	h.checkDrain(&vs)
	h.checkCoherence(&vs)
	h.checkMulticast(&vs)
	h.checkCopies(&vs)
	h.checkPlain(&vs)
	h.checkAtomics(&vs)
	h.checkFences(&vs)
	h.checkLinearizable(&vs)
	return vs
}

// checkLinearizable: the history reconstructed from the op-boundary
// events, restricted to the single-copy words (the plain region and the
// two atomic words), must be linearizable against the single-word object
// model; and independently, the whole history must satisfy the §2.3.5
// fence contract. Both were decided online, window by window, while the
// stream drained (linearize.Online); here the verdicts are collected.
// This subsumes the aggregate counts above with a full interval-order
// argument, so protocol bugs that conspire to keep the totals right are
// still caught.
func (h *harness) checkLinearizable(vs *[]Violation) {
	for _, v := range h.olz.Violations() {
		checkOne(vs, "linearizability", "%v", v)
	}
	for _, v := range h.olz.FenceViolations() {
		checkOne(vs, "fence-order", "%v", v)
	}
}

// checkDrain: after quiescence nothing may remain in flight — no
// outstanding remote operations, no live pending-write counters, no
// unacknowledged ARQ frames, no queued packets.
func (h *harness) checkDrain(vs *[]Violation) {
	for i, n := range h.c.Nodes {
		if o := n.HIB.Outstanding(); o != 0 {
			checkOne(vs, "drain", "node %d still has %d outstanding operations", i, o)
		}
		if live := h.u.Mgr(i).Cache().Live(); live != 0 {
			checkOne(vs, "counter-hygiene", "node %d has %d live pending-write counters", i, live)
		}
	}
	if u := h.c.Net.UnackedFrames(); u != 0 {
		checkOne(vs, "drain", "%d link frames still unacknowledged", u)
	}
	if q := h.c.Net.QueuedPackets(); q != 0 {
		checkOne(vs, "drain", "%d packets still queued in the fabric", q)
	}
	for _, sw := range h.c.Net.Switches {
		if p := sw.PendingCollective(); p != 0 {
			checkOne(vs, "drain", "switch %s retains %d collective combine/merge records", sw.Name(), p)
		}
	}
}

// checkCoherence: every replica of the protocol page must equal the
// owner's copy; the owner's copy must hold the last serialized value; and
// the per-node applied-value histories must embed in one total order.
func (h *harness) checkCoherence(vs *[]Violation) {
	cohOff := h.c.SharedOffset(h.cohVA.va)
	for w := 0; w < h.sc.CohWords; w++ {
		off := cohOff + 8*uint64(w)
		ownerV := h.c.Nodes[h.sc.Owner].Mem.ReadWord(off)
		for _, n := range h.sc.Copies {
			if v := h.c.Nodes[n].Mem.ReadWord(off); v != ownerV {
				checkOne(vs, "coherence-convergence",
					"word %d: replica on node %d holds %#x, owner (node %d) holds %#x",
					w, n, v, h.sc.Owner, ownerV)
			}
		}
		if want, ok := h.acc.lastSerial[off]; ok && ownerV != want {
			checkOne(vs, "coherence-convergence",
				"word %d: owner holds %#x but the last serialized write was %#x", w, ownerV, want)
		}

		hists := make(map[string][]uint64, len(h.sc.Copies))
		for _, n := range h.sc.Copies {
			hists[fmt.Sprintf("node%d", n)] = h.u.Mgr(n).AppliedValues(off)
		}
		if err := consistency.CheckCoherent(hists); err != nil {
			checkOne(vs, "coherence-order", "word %d: %v", w, err)
		}
	}
}

// checkMulticast: the single-writer multicast page must converge — every
// replica equal to the writer's copy — and every multicast write must have
// been applied exactly once per destination (the ARQ layer's exactly-once
// contract).
func (h *harness) checkMulticast(vs *[]Violation) {
	mcOff := h.c.SharedOffset(h.mcVA.va)
	m := h.mcVA.home
	nDests := h.sc.Nodes - 1
	for w := 0; w < mcWords; w++ {
		off := mcOff + 8*uint64(w)
		want := h.c.Nodes[m].Mem.ReadWord(off)
		for i := 0; i < h.sc.Nodes; i++ {
			if i == m {
				continue
			}
			if v := h.c.Nodes[i].Mem.ReadWord(off); v != want {
				checkOne(vs, "multicast-convergence",
					"word %d: replica on node %d holds %#x, writer (node %d) holds %#x", w, i, v, m, want)
			}
		}
	}
	for v := range h.mcVals {
		if got := len(h.acc.applyAt[v]); got != nDests {
			checkOne(vs, "exactly-once",
				"multicast value %#x applied %d times, want exactly %d (one per replica)", v, got, nDests)
		}
	}
}

// checkCopies: every destination region that received at least one remote
// copy must equal the (immutable) source region word for word.
func (h *harness) checkCopies(vs *[]Violation) {
	srcOff := h.c.SharedOffset(h.srcVA.va)
	for i := 0; i < h.sc.Nodes; i++ {
		if h.copied[i] == 0 {
			continue
		}
		dstOff := h.c.SharedOffset(h.dstVA[i].va)
		for j := 0; j < h.sc.CopyWords; j++ {
			want := h.c.Nodes[h.srcVA.home].Mem.ReadWord(srcOff + 8*uint64(j))
			got := h.c.Nodes[i].Mem.ReadWord(dstOff + 8*uint64(j))
			if got != want {
				checkOne(vs, "copy-integrity",
					"node %d dst word %d holds %#x, source holds %#x", i, j, got, want)
				break // one diff per region is enough detail
			}
		}
	}
}

// checkPlain: on the unreplicated region every issued write must have
// applied exactly once at the home node (no loss, no duplication), every
// applied value must be a value some program issued (flagged in-stream
// by the accumulator), and the final word must be the value of the last
// apply event for that word.
func (h *harness) checkPlain(vs *[]Violation) {
	plainOff := h.c.SharedOffset(h.plainVA.va)
	home := h.plainVA.home
	for v, w := range h.plainVals {
		if n := h.acc.plainApplied[v]; n != 1 {
			checkOne(vs, "exactly-once", "plain value %#x (word %d) applied %d times, want exactly 1", v, w, n)
		}
	}
	for w := 0; w < h.sc.PlainWords; w++ {
		got := h.c.Nodes[home].Mem.ReadWord(plainOff + 8*uint64(w))
		if want := h.acc.plainLast[w]; got != want {
			checkOne(vs, "final-write-wins", "plain word %d holds %#x, last applied write was %#x", w, got, want)
		}
	}
}

// checkAtomics: the counter word must equal the total number of
// fetch&increments issued cluster-wide (each applied exactly once), and
// the swap word must hold zero or some issued operand.
func (h *harness) checkAtomics(vs *[]Violation) {
	atomOff := h.c.SharedOffset(h.atomVA.va)
	home := h.atomVA.home
	total := 0
	for _, n := range h.incTotals {
		total += n
	}
	if got := h.c.Nodes[home].Mem.ReadWord(atomOff); got != uint64(total) {
		checkOne(vs, "atomic-exactly-once",
			"fetch&inc counter holds %d, programs issued %d increments", got, total)
	}
	if got := h.c.Nodes[home].Mem.ReadWord(atomOff + 8); got != 0 && !h.fsVals[got] {
		checkOne(vs, "value-provenance", "swap word holds %#x, which no program issued", got)
	}
}

// checkFences: every write a program issued before a FENCE must have
// reached its global serialization point no later than the moment the
// FENCE completed — applied at the home node (plain), serialized at the
// owner (coherent), or applied at every replica (multicast).
func (h *harness) checkFences(vs *[]Violation) {
	nDests := int64(h.sc.Nodes - 1)
	for i, ns := range h.perNode {
		for _, f := range ns.fences {
			for _, wr := range f.writes {
				switch wr.region {
				case regPlain:
					if !anyAtOrBefore(h.acc.applyAt[wr.val], f.end) {
						checkOne(vs, "fence", "node %d fence at %dns: plain write %#x not yet applied", i, f.end, wr.val)
					}
				case regCoh:
					if at, ok := h.acc.serialAt[wr.val]; !ok || at > f.end {
						checkOne(vs, "fence", "node %d fence at %dns: coherent write %#x not yet serialized", i, f.end, wr.val)
					}
				case regMcast:
					n := int64(0)
					for _, at := range h.acc.applyAt[wr.val] {
						if at <= f.end {
							n++
						}
					}
					if n < nDests {
						checkOne(vs, "fence",
							"node %d fence at %dns: multicast write %#x applied at %d of %d replicas", i, f.end, wr.val, n, nDests)
					}
				}
			}
		}
	}
}

// anyAtOrBefore reports whether any timestamp is at or before deadline.
func anyAtOrBefore(times []int64, deadline int64) bool {
	for _, t := range times {
		if t <= deadline {
			return true
		}
	}
	return false
}

var _ trace.Sink = (*streamAcc)(nil)
