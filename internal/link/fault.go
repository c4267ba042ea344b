// Fault injection and the link-level retransmission protocol.
//
// A FaultPlan turns the ideal lossless wire into an adversarial one:
// packets may be dropped, duplicated, delayed by random jitter, or held
// back so that later packets overtake them. To keep the external contract
// the rest of the machine depends on — lossless, in-order, exactly-once
// per virtual channel — a faulty link runs a go-back-style ARQ sublayer:
// every frame carries a per-VC sequence number, the receiver acknowledges
// cumulatively and reassembles order with a reorder buffer, duplicates
// are recognized and discarded by sequence number, and unacknowledged
// frames are retransmitted on a timer. This mirrors the fault-tolerant
// link layers of NIC-based protocol work (e.g. APEnet+): the wire is
// unreliable, the link presents reliability upward.
//
// The ARQ sublayer never reads a packet: to it a *packet.Packet is an
// opaque token. The sender window keeps the pointer only to re-send it,
// a retransmission copies the pointer unread, and the receiver discards
// a frame whose sequence number it has already delivered without
// touching the packet. So once a packet is delivered, its consumer owns
// it outright — it may overwrite and re-send it at once while stale
// copies of its frames are still in flight — which is what lets the
// HIB's packet pool recycle on faulty fabrics
// (TestARQNeverReadsDeliveredPacket pins it).
package link

import (
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// FaultPlan describes the seeded fault environment for every link built
// with it. Probabilities apply per transmission attempt; all randomness
// derives from Seed and the link's name, so a plan is fully deterministic.
type FaultPlan struct {
	// Seed drives every per-link random stream.
	Seed int64
	// DropProb is the probability a transmitted frame vanishes in flight.
	DropProb float64
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// ReorderProb is the probability a frame is held back by ReorderDelay,
	// letting frames sent after it arrive first.
	ReorderProb float64
	// JitterMax adds a uniform random [0, JitterMax] to every frame's
	// propagation delay.
	JitterMax sim.Time
	// ReorderDelay is the hold-back applied to reordered frames
	// (default 2 µs when zero and ReorderProb > 0).
	ReorderDelay sim.Time
	// RetryTimeout is the ARQ retransmission timer (a safe default is
	// derived from the link parameters when zero). Spurious retransmits
	// are harmless: the receiver deduplicates by sequence number.
	RetryTimeout sim.Time
}

// Active reports whether the plan injects any fault at all.
func (fp *FaultPlan) Active() bool {
	return fp != nil && (fp.DropProb > 0 || fp.DupProb > 0 || fp.ReorderProb > 0 || fp.JitterMax > 0)
}

// FaultStats counts fault events and recovery work on one link.
type FaultStats struct {
	Dropped     int64 // frames lost in flight
	Duplicated  int64 // frames delivered twice by the wire
	Reordered   int64 // frames held back past their successors
	Retransmits int64 // ARQ retransmission attempts
	Deduped     int64 // duplicate frames discarded by the receiver
	Buffered    int64 // out-of-order frames parked in the reorder buffer
}

// Add accumulates other into s.
func (s *FaultStats) Add(other FaultStats) {
	s.Dropped += other.Dropped
	s.Duplicated += other.Duplicated
	s.Reordered += other.Reordered
	s.Retransmits += other.Retransmits
	s.Deduped += other.Deduped
	s.Buffered += other.Buffered
}

// Total reports the number of injected fault events (not recovery work).
func (s FaultStats) Total() int64 { return s.Dropped + s.Duplicated + s.Reordered }

// frame is one ARQ transfer unit: a packet plus its per-VC sequence number.
type frame struct {
	seq uint64
	pkt *packet.Packet
}

// minWindow is the initial size of a sender window or reorder buffer.
// Both are power-of-two rings indexed by seq & mask that double on
// demand, so the size only bounds the first allocation.
const minWindow = 2

// arqSlot is one sender-window entry: the frame awaiting acknowledgement
// and its retransmission timer. Its retransmit callback is bound once,
// when the slot is made; the window reuses the slot for every sequence
// number that maps to it, and keeps it (by pointer) when it doubles.
type arqSlot struct {
	f     frame
	timer sim.Event
	retx  func()
}

// sendWindow is one VC's ARQ sender state. The frames sent but not yet
// cumulatively acknowledged are exactly [acked, nextSeq); frame seq
// lives in slots[seq&mask], and the ring doubles when it is full.
type sendWindow struct {
	slots   []*arqSlot
	mask    uint64
	nextSeq uint64
	acked   uint64 // all seq < acked are acknowledged
}

// reorderBuf is one VC's ARQ receiver state: the next expected sequence
// number and the frames that arrived early. An early frame seq lies in
// (expect, expect+len(held)) and is parked in held[seq&mask]; a frame
// beyond that range doubles the ring first.
type reorderBuf struct {
	held   []*packet.Packet
	mask   uint64
	expect uint64
}

// xmit is one frame attempt in flight, and then that arrival's ack. The
// sender takes a record from its free list and sends it down the
// forward channel; the receiver's arrive writes the cumulative ack into
// the same record and sends it back on the reverse channel (every
// arrival sends exactly one ack); the sender applies the ack and frees
// the record. Each half touches a record only between its channel's
// hand-offs, so records work across shards as on one engine. Both
// handlers are bound once, when the record is made. A duplicated frame
// takes two records; a dropped one takes none.
type xmit struct {
	inj      *injector
	vc       packet.VC
	f        frame
	upTo     uint64 // the ack: every seq below it delivered
	arriveFn func() // receiver half: inj.arrive(x)
	ackFn    func() // sender half: apply the ack, free the record
}

// acked applies the record's acknowledgement on the sender engine and
// returns the record to the free list.
func (x *xmit) acked() {
	inj := x.inj
	inj.ack(x.vc, x.upTo)
	x.f = frame{}
	inj.xfree = append(inj.xfree, x)
}

// injector is the per-link fault + ARQ state, split along the wire: the
// sender half (sequence assignment, fault draws, retransmission timers)
// runs on the link's sender engine, the receiver half (dedup, reorder
// buffer, cumulative acks) on its receiver engine. Frames cross on the
// link's forward channel and acks return on the reverse channel, each
// crossing in a recycled xmit record, so the two halves never touch
// each other's state directly, the link may span two shards, and no
// crossing allocates once the free list has grown to the traffic's
// high-water mark.
type injector struct {
	l       *Link
	rng     *sim.RNG // sender-side: all fault draws happen at transmit
	plan    FaultPlan
	timeout sim.Time

	// Per-VC ARQ state, made on the VC's first frame: the escape
	// layers above 0 carry traffic only on torus and dragonfly trunks.
	win [packet.NumVCs]*sendWindow // sender side
	rx  [packet.NumVCs]*reorderBuf // receiver side

	xfree []*xmit // sender-side: idle frame records

	sstats FaultStats // sender-side counters (drops, dups, reorders, retransmits)
	rstats FaultStats // receiver-side counters (dedup, reorder buffering)
}

// newInjector builds the ARQ state for l under plan.
func newInjector(l *Link, plan FaultPlan) *injector {
	inj := &injector{
		l:    l,
		rng:  sim.ForkRNG(uint64(plan.Seed), "link/"+l.name),
		plan: plan,
	}
	if inj.plan.ReorderDelay == 0 {
		inj.plan.ReorderDelay = 2 * sim.Microsecond
	}
	inj.timeout = plan.RetryTimeout
	if inj.timeout == 0 {
		// Cover the worst honest one-way delay (propagation + jitter +
		// reorder hold-back + a generous serialization allowance) with
		// margin; too short only costs harmless duplicate retransmits.
		inj.timeout = 4*(l.cfg.PropDelay+inj.plan.JitterMax+inj.plan.ReorderDelay) +
			128*l.cfg.WordTime + 10*sim.Microsecond
	}
	return inj
}

// send enters a packet into the ARQ sender after it has cleared the wire:
// it is assigned the next sequence number, transmitted through the faulty
// channel, and guarded by a retransmission timer until acknowledged.
func (inj *injector) send(vc packet.VC, pkt *packet.Packet) {
	w := inj.win[vc]
	if w == nil {
		w = &sendWindow{}
		inj.win[vc] = w
	}
	if w.nextSeq-w.acked == uint64(len(w.slots)) {
		inj.growWindow(vc)
	}
	s := w.slots[w.nextSeq&w.mask]
	s.f = frame{seq: w.nextSeq, pkt: pkt}
	w.nextSeq++
	inj.transmit(vc, s)
}

// growWindow doubles vc's sender window, moving every live slot to its
// place in the larger ring and making the slots that are new.
func (inj *injector) growWindow(vc packet.VC) {
	w := inj.win[vc]
	n := max(2*len(w.slots), minWindow)
	slots := make([]*arqSlot, n)
	mask := uint64(n - 1)
	for seq := w.acked; seq < w.nextSeq; seq++ {
		slots[seq&mask] = w.slots[seq&w.mask]
	}
	for i, s := range slots {
		if s == nil {
			s = &arqSlot{}
			s.retx = func() { inj.retransmit(vc, s) }
			slots[i] = s
		}
	}
	w.slots, w.mask = slots, mask
}

// transmit pushes one attempt of slot s's frame through the faulty
// channel and arms the retransmission timer. It runs on the sender
// engine; deliveries cross to the receiver on the link's forward channel
// (whose minimum delay, the propagation delay, bounds every jittered
// arrival below).
func (inj *injector) transmit(vc packet.VC, s *arqSlot) {
	delay := inj.l.cfg.PropDelay + inj.rng.Duration(inj.plan.JitterMax)
	switch {
	case inj.rng.Bool(inj.plan.DropProb):
		inj.sstats.Dropped++
		// The frame vanishes; only the retry timer will resurrect it.
	case inj.rng.Bool(inj.plan.DupProb):
		inj.sstats.Duplicated++
		inj.forward(delay, vc, s.f)
		extra := delay + inj.rng.Duration(inj.plan.JitterMax) + sim.Microsecond
		inj.forward(extra, vc, s.f)
	case inj.rng.Bool(inj.plan.ReorderProb):
		inj.sstats.Reordered++
		inj.forward(delay+inj.plan.ReorderDelay, vc, s.f)
	default:
		inj.forward(delay, vc, s.f)
	}
	inj.armTimer(s)
}

// forward sends one copy of f to the receiver half, delay from now.
func (inj *injector) forward(delay sim.Time, vc packet.VC, f frame) {
	var x *xmit
	if n := len(inj.xfree); n > 0 {
		x = inj.xfree[n-1]
		inj.xfree = inj.xfree[:n-1]
	} else {
		x = &xmit{inj: inj}
		x.arriveFn = func() { inj.arrive(x) }
		x.ackFn = x.acked
	}
	x.vc, x.f = vc, f
	inj.l.fwd.Send(delay, x.arriveFn)
}

// armTimer schedules a retransmission of s's frame unless it is acked
// first.
func (inj *injector) armTimer(s *arqSlot) {
	s.timer.Cancel() // fired or stale handles are inert no-ops
	s.timer = inj.l.eng.Schedule(inj.timeout, s.retx)
}

// retransmit is slot s's timer callback.
func (inj *injector) retransmit(vc packet.VC, s *arqSlot) {
	if s.f.seq < inj.win[vc].acked {
		return // acked while the timer event was in flight
	}
	inj.sstats.Retransmits++
	inj.transmit(vc, s)
}

// arrive is the receiver side: deduplicate, restore order, deliver, ack.
// It runs on the receiver engine as a forward-channel message and sends
// x back as the ack.
func (inj *injector) arrive(x *xmit) {
	vc, f := x.vc, x.f
	r := inj.rx[vc]
	if r == nil {
		r = &reorderBuf{}
		inj.rx[vc] = r
	}
	switch {
	case f.seq < r.expect:
		inj.rstats.Deduped++ // already delivered: a wire dup or a spurious retransmit
	case f.seq > r.expect:
		if f.seq-r.expect >= uint64(len(r.held)) {
			r.grow(f.seq)
		}
		if slot := &r.held[f.seq&r.mask]; *slot != nil {
			inj.rstats.Deduped++
		} else {
			inj.rstats.Buffered++
			*slot = f.pkt
		}
	default:
		inj.deliver(vc, f.pkt)
		r.expect++
		for len(r.held) > 0 {
			slot := &r.held[r.expect&r.mask]
			pkt := *slot
			if pkt == nil {
				break
			}
			*slot = nil
			inj.deliver(vc, pkt)
			r.expect++
		}
	}
	// Cumulative acknowledgement travels the reverse control channel,
	// modeled as a reliable signal with the link's propagation delay.
	x.upTo = r.expect
	inj.l.rev.Send(inj.l.cfg.PropDelay, x.ackFn)
}

// grow doubles the reorder buffer until early frame seq fits, moving
// every parked frame to its place in the larger ring.
func (r *reorderBuf) grow(seq uint64) {
	n := max(2*len(r.held), minWindow)
	for seq-r.expect >= uint64(n) {
		n *= 2
	}
	held := make([]*packet.Packet, n)
	mask := uint64(n - 1)
	for s := r.expect + 1; s < r.expect+uint64(len(r.held)); s++ {
		held[s&mask] = r.held[s&r.mask]
	}
	r.held, r.mask = held, mask
}

// deliver hands an in-order, exactly-once packet to the link's arrived
// queue — the same path the fault-free wire uses, so consumers are
// unchanged.
func (inj *injector) deliver(vc packet.VC, pkt *packet.Packet) {
	inj.l.push(vc, pkt)
}

// ack processes a cumulative acknowledgement: every frame below upTo is
// released and its retransmission timer canceled.
func (inj *injector) ack(vc packet.VC, upTo uint64) {
	w := inj.win[vc]
	for seq := w.acked; seq < upTo; seq++ {
		s := w.slots[seq&w.mask]
		s.f.pkt = nil
		s.timer.Cancel()
	}
	if upTo > w.acked {
		w.acked = upTo
	}
}

// unacked reports the number of frames awaiting acknowledgement (telemetry
// and quiescence checking).
func (inj *injector) unacked() int {
	n := 0
	for _, w := range inj.win {
		if w != nil {
			n += int(w.nextSeq - w.acked)
		}
	}
	return n
}
