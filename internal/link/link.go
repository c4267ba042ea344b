// Package link models the point-to-point links of the Telegraphos network:
// unidirectional wires with finite bandwidth, propagation delay, and
// credit-based (back-pressured) flow control per virtual channel.
//
// The Telegraphos switch papers [16, 17] describe VC-level flow control
// with back-pressure and lossless, in-order delivery; this model provides
// exactly that external contract. Each link carries packet.NumVCs virtual
// channels; requests and replies travel on different VCs so that
// request-reply dependency cycles cannot deadlock the fabric.
//
// A link's two endpoints may live on different simulation shards: the
// sender half (credits, wire timeline, ARQ sender) runs on the sending
// engine, the receiver half (arrival queues, ARQ receiver) on the
// receiving engine, and everything that crosses the wire — packets,
// credits, ARQ acks — travels over sim.Chans whose minimum delay is the
// propagation delay. That physical latency is exactly the lookahead the
// sharded engine uses.
//
// The link is an event-driven state machine, not a set of blocking
// processes: SendEv reserves the wire timeline and calls back when the
// packet has cleared it, and the receiver side hands arrivals to a
// registered notify hook, which drains them with TryRecv. A process that
// wants to block on a send waits on a sim.Completion that onClear
// completes.
package link

import (
	"fmt"

	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// Config sets a link's physical parameters.
type Config struct {
	// PropDelay is the signal propagation delay (cable length).
	PropDelay sim.Time
	// WordTime is the time to clock one 8-byte word across the wire;
	// a packet occupies the wire for ceil(SizeBytes/8) * WordTime.
	WordTime sim.Time
	// BufPackets is the receiver buffer capacity, in packets, per
	// virtual channel; it is also the sender's credit count.
	BufPackets int
	// Faults, when non-nil and active, makes the wire adversarial
	// (seeded drops, duplicates, jitter, reordering) and enables the ARQ
	// sublayer that restores the lossless in-order contract. See
	// FaultPlan.
	Faults *FaultPlan
}

// DefaultConfig reflects the Telegraphos I ribbon-cable links: roughly
// 30 ns per word (≈ 266 MB/s), 10 ns propagation, and a 4-packet FIFO per
// VC (the HIB has "2+2 Kb of synchronizing FIFOs", Table 1).
func DefaultConfig() Config {
	return Config{PropDelay: 10 * sim.Nanosecond, WordTime: 30 * sim.Nanosecond, BufPackets: 4}
}

// pendingSend is a packet waiting for a flow-control credit on its VC.
type pendingSend struct {
	pkt     *packet.Packet
	onClear func()
}

// wireItem is a packet whose wire slot is reserved but has not yet
// cleared the wire. Wire-clear events fire in reservation order (the
// timeline is strictly increasing), so a FIFO plus one prebound handler
// replaces a per-packet closure.
type wireItem struct {
	vc      packet.VC
	pkt     *packet.Packet
	onClear func()
}

// fifo is a queue that reuses its backing array. pop advances a head
// index instead of reslicing, and push compacts the live entries to the
// front before append would grow a full array that has a popped prefix.
// A queue whose occupancy stays bounded therefore stops allocating once
// its array reaches that bound, even if it never drains.
type fifo[T any] struct {
	buf  []T
	head int
}

// len reports the number of queued entries.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// push appends x at the tail.
func (q *fifo[T]) push(x T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, x)
}

// pop removes and returns the head entry; the queue must not be empty.
func (q *fifo[T]) pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return x
}

// rxItem is a packet in flight on a fault-free, same-engine wire. Per
// link, fwd-channel deliveries happen in send order (constant propagation
// delay, FIFO channel), so the sender appends here and the prebound
// arrival handler pops the head — no per-packet delivery closure. The
// queue is single-engine state only: on a cross-shard link the two
// endpoints run concurrently within a barrier round, so those links keep
// the per-packet closure (the packet travels inside the sim.Chan
// message). Faulty links also bypass this queue: the ARQ injector
// reorders frames, so each frame attempt travels in its own record
// (xmit) or, across shards, its own closure.
type rxItem struct {
	vc  packet.VC
	pkt *packet.Packet
}

// Link is a unidirectional, lossless, in-order link. Senders call SendEv;
// the receiving element drains it with TryRecv under a notify hook, which
// returns the consumed buffer's credit to the sender one propagation
// delay later over the reverse control channel.
type Link struct {
	name string
	eng  *sim.Engine // sender-side engine
	reng *sim.Engine // receiver-side engine
	cfg  Config
	fwd  *sim.Chan // sender -> receiver: packets / ARQ frames
	rev  *sim.Chan // receiver -> sender: credits / ARQ acks
	inj  *injector // nil on a fault-free link

	// Sender state. The wire is a reservation timeline: a credited packet
	// reserves [start, start+transferTime) with start = max(now, wireFree),
	// which serializes transmissions in launch order exactly as the old
	// wire mutex did, without a coroutine parked per packet.
	credits  [packet.NumVCs]int
	sendq    [packet.NumVCs]fifo[pendingSend]
	wireFree sim.Time
	creditFn [packet.NumVCs]func() // prebound credit-arrival handlers
	wireq    fifo[wireItem]        // reserved wire slots, in clear order
	clearFn  func()                // prebound wire-clear handler

	// In-flight packets on a fault-free wire (see rxItem). The sender
	// pushes at wire-clear time; the receiver-engine pushFn pops.
	rxq    fifo[rxItem]
	pushFn func() // prebound arrival handler

	// Receiver state: arrived-but-unconsumed packets per VC and the
	// consumer's notify hook.
	arrived [packet.NumVCs]fifo[*packet.Packet]
	notify  [packet.NumVCs]func()

	// Telemetry (sender side).
	sentPackets int64
	sentWords   int64
	busy        sim.Time
}

// New returns an idle link with both endpoints on eng.
func New(eng *sim.Engine, name string, cfg Config) *Link {
	return NewCross(eng, eng, name, cfg)
}

// NewCross returns an idle link whose sender runs on snd and whose
// receiver runs on rcv (which may be the same engine, or two shards of
// one sim.Group).
func NewCross(snd, rcv *sim.Engine, name string, cfg Config) *Link {
	if cfg.BufPackets <= 0 {
		cfg.BufPackets = 1
	}
	if cfg.WordTime <= 0 {
		cfg.WordTime = 1
	}
	l := &Link{name: name, eng: snd, reng: rcv, cfg: cfg}
	l.fwd = sim.NewChan(snd, rcv, cfg.PropDelay)
	l.rev = sim.NewChan(rcv, snd, cfg.PropDelay)
	for vc := 0; vc < packet.NumVCs; vc++ {
		vc := packet.VC(vc)
		l.credits[vc] = cfg.BufPackets
		l.creditFn[vc] = func() { l.creditArrive(vc) }
	}
	l.clearFn = l.wireClear
	l.pushFn = l.pushHead
	if cfg.Faults.Active() {
		l.inj = newInjector(l, *cfg.Faults)
	}
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Ends reports the engines the link's sender and receiver halves run on.
func (l *Link) Ends() (snd, rcv *sim.Engine) { return l.eng, l.reng }

// Config returns the link's configuration.
func (l *Link) Config() Config { return l.cfg }

// transferTime is the wire occupancy of pkt.
func (l *Link) transferTime(pkt *packet.Packet) sim.Time {
	words := (pkt.SizeBytes() + 7) / 8
	return sim.Time(words) * l.cfg.WordTime
}

// SendEv transmits pkt from event context on the sender engine. The
// packet waits for a receive-buffer credit on its VC (FIFO per VC), then
// occupies the wire for its serialization time and is delivered to the
// far end PropDelay later. onClear, if non-nil, runs on the sender engine
// at the instant the packet clears the wire, so callers chain onClear to launch their next
// packet and back-pressure propagates exactly as before. Per VC, packets
// arrive in exactly the order sent — on a faulty link the ARQ sublayer
// restores that order and delivers exactly once despite drops,
// duplicates, and reordering on the wire.
func (l *Link) SendEv(pkt *packet.Packet, onClear func()) {
	vc := pkt.Channel()
	if l.credits[vc] > 0 && l.sendq[vc].len() == 0 {
		l.launch(vc, pkt, onClear)
		return
	}
	l.sendq[vc].push(pendingSend{pkt: pkt, onClear: onClear})
}

// launch spends one credit and reserves the next wire slot for pkt.
func (l *Link) launch(vc packet.VC, pkt *packet.Packet, onClear func()) {
	l.credits[vc]--
	start := l.eng.Now()
	if start < l.wireFree {
		start = l.wireFree
	}
	t := l.transferTime(pkt)
	l.wireFree = start + t
	l.busy += t
	l.sentPackets++
	l.sentWords += int64((pkt.SizeBytes() + 7) / 8)
	l.wireq.push(wireItem{vc: vc, pkt: pkt, onClear: onClear})
	l.eng.At(l.wireFree, l.clearFn) //tgvet:allow eventdrop(wire-clear always fires; the queued wireItem is consumed by exactly this event)
}

// wireClear runs when the oldest reserved wire slot's packet finishes
// serializing: the packet enters the wire proper (propagation), and the
// sender's onClear chain fires.
func (l *Link) wireClear() {
	w := l.wireq.pop()
	switch {
	case l.inj != nil:
		l.inj.send(w.vc, w.pkt)
	case l.eng == l.reng:
		l.rxq.push(rxItem{vc: w.vc, pkt: w.pkt})
		l.fwd.Send(l.cfg.PropDelay, l.pushFn)
	default:
		vc, pkt := w.vc, w.pkt
		l.fwd.Send(l.cfg.PropDelay, func() { l.push(vc, pkt) })
	}
	if w.onClear != nil {
		w.onClear()
	}
}

// pushHead delivers the oldest in-flight packet on the receiver engine.
func (l *Link) pushHead() {
	it := l.rxq.pop()
	l.push(it.vc, it.pkt)
}

// creditArrive runs on the sender engine when a consumed buffer's credit
// returns; it launches the oldest queued packet on the VC, if any.
func (l *Link) creditArrive(vc packet.VC) {
	l.credits[vc]++
	if l.sendq[vc].len() > 0 {
		s := l.sendq[vc].pop()
		l.launch(vc, s.pkt, s.onClear)
	}
}

// push hands an arrived packet to the receiver side: it joins the VC's
// arrival queue and fires the notify hook.
func (l *Link) push(vc packet.VC, pkt *packet.Packet) {
	l.arrived[vc].push(pkt)
	if fn := l.notify[vc]; fn != nil {
		fn()
	}
}

// SetNotify registers fn to run (on the receiver engine, in the arrival's
// event context) whenever a packet becomes available on vc. The consumer
// drains with TryRecv; a notify with nothing consumed is harmless.
func (l *Link) SetNotify(vc packet.VC, fn func()) { l.notify[vc] = fn }

// TryRecv removes an arrived packet on vc without blocking, returning the
// consumed buffer's credit to the sender. It must be called from the
// receiver engine's context.
func (l *Link) TryRecv(vc packet.VC) (*packet.Packet, bool) {
	if l.arrived[vc].len() == 0 {
		return nil, false
	}
	pkt := l.arrived[vc].pop()
	l.rev.Send(l.cfg.PropDelay, l.creditFn[vc])
	return pkt, true
}

// Queued reports the number of arrived-but-unconsumed packets on vc.
func (l *Link) Queued(vc packet.VC) int { return l.arrived[vc].len() }

// SentPackets reports the total packets transmitted.
func (l *Link) SentPackets() int64 { return l.sentPackets }

// SentWords reports the total 8-byte words transmitted.
func (l *Link) SentWords() int64 { return l.sentWords }

// BusyTime reports cumulative wire occupancy (for utilization).
func (l *Link) BusyTime() sim.Time { return l.busy }

// Utilization reports busy time as a fraction of elapsed simulated time.
func (l *Link) Utilization() float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(l.busy) / float64(now)
}

// FaultStats reports the link's injected-fault and recovery counters
// (all zero on a fault-free link). Call it only when the simulation is
// quiescent: it merges the sender- and receiver-side counters.
func (l *Link) FaultStats() FaultStats {
	if l.inj == nil {
		return FaultStats{}
	}
	s := l.inj.sstats
	s.Add(l.inj.rstats)
	return s
}

// Unacked reports ARQ frames still awaiting acknowledgement; after the
// fabric quiesces it must be zero.
func (l *Link) Unacked() int {
	if l.inj == nil {
		return 0
	}
	return l.inj.unacked()
}

// Faulty reports whether the link runs a fault plan.
func (l *Link) Faulty() bool { return l.inj != nil }

// String renders the link name and counters.
func (l *Link) String() string {
	return fmt.Sprintf("link %s: %d pkts, %d words, util %.1f%%", l.name, l.sentPackets, l.sentWords, 100*l.Utilization())
}
