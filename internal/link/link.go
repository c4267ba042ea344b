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
// credits, ARQ frames and acks — travels over sim.Chans whose minimum
// delay is the propagation delay. That physical latency is exactly the
// lookahead the sharded engine uses. Each crossing sends a prebound
// handler and leaves its payload in storage the link reuses — the wire
// ring of a fault-free link, the ARQ's frame records of a faulty one —
// so a link crossing allocates nothing in steady state, on one engine
// or across two shards, just as sim.Chan.Send does not.
//
// The link is an event-driven state machine, not a set of blocking
// processes: SendEv reserves the wire timeline and calls back when the
// packet has cleared it, and the receiver side hands arrivals to a
// registered notify hook, which drains them with TryRecv. A process that
// wants to block on a send waits on a sim.Completion that onClear
// completes.
//
// A packet's arrival time is fixed when it launches, so a fault-free
// link sends the arrival then, and its wire clear is an event only when
// a sender waits on it: a SendEv caller with a non-nil onClear, or a
// Clear handle that Notify armed. launch reserves the clear's schedule
// key (sim.Engine.Reserve) where an eager clear event would have taken
// it, so a clear scheduled on demand runs exactly where the eager one
// did and every other event keeps its order. A faulty link keeps its
// clear event, because the ARQ draws the frame's faults and arms its
// timer at the clear.
//
// Credits return the same way on a fault-free link whose two ends share
// an engine: TryRecv reserves the credit message's time and queue key
// (sim.Chan.Reserve), and the credit becomes a message, at that key,
// only while a packet waits for it in the VC's send queue. Otherwise it
// is owed: a sender finding its queue empty first counts every owed
// credit whose message would already have run, and if the packet must
// still wait, sends the rest as messages. Each credit keeps its own time
// and key, none is merged with another, so the sender sees exactly the
// credits an eager message per credit would have given it. A faulty
// link sends every credit, since its ARQ shares the reverse channel,
// and so does a link between two shards, whose sender cannot judge from
// its own clock whether a credit message has passed.
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

// pendingSend is a packet handed to the link, with what its sender
// wants done at its wire clear: onClear for SendEv, the handle for
// SendClear. It waits in the VC's sendq while the VC has no credit, and
// on a faulty link in wireq from its launch until its clear event:
// clear events fire in reservation order (the timeline is strictly
// increasing), so a FIFO plus one prebound handler replaces a
// per-packet closure.
type pendingSend struct {
	pkt     *packet.Packet
	onClear func()
	clear   *Clear
}

// Clear is a sender's handle on the wire clear of the latest packet it
// sent with SendClear, for a sender with work to do at a clear only
// sometimes: the switch's output stage acts at a clear only when
// another packet waits behind the one on the wire. Busy reports whether
// that packet still waits for a credit or has not yet cleared the wire,
// judged by sim.Engine.Passed at the clear's reserved key. Notify asks
// for the handle's function to run at the clear. On a fault-free link
// that makes the clear an event, at its reserved key; a faulty link's
// clear event runs anyway and calls the function once Notify asked.
// The zero Clear is idle; Init binds its function once.
type Clear struct {
	fn func()
	l  *Link // the latest packet's link; nil once its clear has passed
	// at and seq are the clear's time and reserved sequence number,
	// set when the packet launches; seq is 0 until then.
	at   sim.Time
	seq  uint64
	want bool // Notify asked for fn at the clear
}

// Init binds fn, which runs at a clear that Notify asked for. Bind it
// once, when the handle is made: a method value allocates.
func (c *Clear) Init(fn func()) { c.fn = fn }

// Busy reports whether the handle's latest packet waits for a credit or
// has not yet cleared the wire, as of the running work item.
//
//tgvet:noalloc
func (c *Clear) Busy() bool {
	if c.l != nil && c.seq != 0 && c.l.eng.Passed(c.at, c.seq) {
		c.l = nil
	}
	return c.l != nil
}

// Notify asks for the handle's function to run, on the sender engine,
// at the instant its packet clears the wire. Call it only while Busy;
// a second call for the same packet does nothing. A packet still
// waiting for a credit gets its clear event when it launches.
//
//tgvet:noalloc
func (c *Clear) Notify() {
	if c.want {
		return
	}
	c.want = true
	if c.seq != 0 && c.l.ring != nil {
		c.l.eng.AtKey(c.at, c.seq, c.fn) //tgvet:allow eventdrop(the clear always fires; the handle stays busy until it does)
	}
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

// wireRing carries a fault-free link's packets across the wire: per VC,
// a ring of exactly BufPackets slots, the depth of the receiver's buffer.
// The sender writes the tail at launch and sends the VC's prebound
// arrival handler down the forward channel, to run when the packet has
// cleared the wire and crossed it; the handler reads the head. Per VC,
// deliveries happen in send order (launches and clears are both in
// wire order, and the channel is FIFO), so head and tail need no tag.
// The ring is never overrun: slot i is written again only by packet
// i+BufPackets, whose launch needs the credit that packet i's
// consumption returns, and a packet is read at its arrival, before it
// can be consumed. On a cross-shard link the credit's sim.Chan hand-off
// therefore orders the receiver's read before the sender's rewrite, and
// the ring works on both layouts.
//
// On a link whose two ends share an engine, owed holds per VC the
// credits TryRecv returned without a message, oldest first, in the
// BufPackets slots from vc*BufPackets: a VC never owes more credits than
// its buffer holds. owedIn and owedOut count the credits filed and
// settled per VC. owed is nil on a cross-shard link.
type wireRing struct {
	slots   [packet.NumVCs][]*packet.Packet
	sent    [packet.NumVCs]int    // sender side: packets written per VC
	read    [packet.NumVCs]int    // receiver side: packets read per VC
	arrive  [packet.NumVCs]func() // prebound per-VC arrival handlers
	owed    []credit
	owedIn  [packet.NumVCs]int
	owedOut [packet.NumVCs]int
}

// credit is an owed credit: the time and queue key its message reserved
// on the reverse channel.
type credit struct {
	at  sim.Time
	key uint64
}

// Link is a unidirectional, lossless, in-order link. Senders call SendEv;
// the receiving element drains it with TryRecv under a notify hook, which
// returns the consumed buffer's credit to the sender one propagation
// delay later over the reverse control channel (or, on one engine, owes
// it until the sender needs it).
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

	// A faulty link's reserved wire slots, in clear order, and its
	// prebound wire-clear handler (unused on a fault-free link).
	wireq   fifo[pendingSend]
	clearFn func()

	// In-flight packets on a fault-free wire (nil on a faulty link,
	// whose frames travel in the injector's records).
	ring *wireRing

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
	if cfg.Faults.Active() {
		l.inj = newInjector(l, *cfg.Faults)
		l.clearFn = l.wireClear
		return l
	}
	r, n := &wireRing{}, cfg.BufPackets
	if snd == rcv {
		r.owed = make([]credit, packet.NumVCs*n)
	}
	buf := make([]*packet.Packet, packet.NumVCs*n)
	for vc := range r.slots {
		r.slots[vc] = buf[vc*n : (vc+1)*n : (vc+1)*n]
		r.arrive[vc] = func() {
			slots := r.slots[vc]
			pkt := slots[r.read[vc]%len(slots)]
			r.read[vc]++
			l.push(packet.VC(vc), pkt)
		}
	}
	l.ring = r
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
// at the instant the packet clears the wire, so callers chain onClear to
// launch their next packet and back-pressure propagates. Per VC, packets
// arrive in exactly the order sent — on a faulty link the ARQ sublayer
// restores that order and delivers exactly once despite drops,
// duplicates, and reordering on the wire.
func (l *Link) SendEv(pkt *packet.Packet, onClear func()) {
	l.send(pendingSend{pkt: pkt, onClear: onClear})
}

// SendClear transmits pkt as SendEv does, tracking its wire clear in c
// instead of calling back: c is Busy from now until the packet clears
// the wire, and Notify asks for the clear's callback. c must not be
// Busy.
func (l *Link) SendClear(pkt *packet.Packet, c *Clear) {
	c.l, c.seq, c.want = l, 0, false
	l.send(pendingSend{pkt: pkt, clear: c})
}

// send launches s at once if its VC has a credit and no queued packet,
// and queues it otherwise. On a link that owes credits, an empty queue
// is first settled.
func (l *Link) send(s pendingSend) {
	vc := s.pkt.Channel()
	if l.sendq[vc].len() == 0 {
		if l.ring != nil && l.ring.owed != nil {
			l.settle(vc)
		}
		if l.credits[vc] > 0 {
			l.launch(vc, s)
			return
		}
	}
	l.sendq[vc].push(s)
}

// settle brings vc's credits up to date for a sender that found its
// queue empty: each owed credit whose message would already have run
// counts now, as its message would have counted it. If the VC still has
// no credit, the packet is about to wait, so every credit still owed
// becomes its message, at its reserved key, and launches the packet
// where an eager credit would have. Owed credits pass in filing order:
// their times and keys both grow.
func (l *Link) settle(vc packet.VC) {
	r := l.ring
	owed := r.owed[int(vc)*l.cfg.BufPackets:][:l.cfg.BufPackets]
	for ; r.owedOut[vc] < r.owedIn[vc]; r.owedOut[vc]++ {
		c := owed[r.owedOut[vc]%len(owed)]
		if !l.rev.Passed(c.at, c.key) {
			break
		}
		l.credits[vc]++
	}
	if l.credits[vc] > 0 {
		return
	}
	for ; r.owedOut[vc] < r.owedIn[vc]; r.owedOut[vc]++ {
		c := owed[r.owedOut[vc]%len(owed)]
		l.rev.SendKey(c.at, c.key, l.creditFn[vc])
	}
}

// launch spends one credit and reserves the next wire slot for s.pkt,
// with the schedule key of its clear. A fault-free link sends the
// arrival now, for the instant the packet will have cleared and crossed
// the wire, and schedules the clear only for a sender that waits on it.
func (l *Link) launch(vc packet.VC, s pendingSend) {
	l.credits[vc]--
	now := l.eng.Now()
	t := l.transferTime(s.pkt)
	l.wireFree = max(now, l.wireFree) + t
	l.busy += t
	l.sentPackets++
	l.sentWords += int64((s.pkt.SizeBytes() + 7) / 8)
	seq := l.eng.Reserve()
	onClear := s.onClear
	if c := s.clear; c != nil {
		c.at, c.seq = l.wireFree, seq
		if c.want {
			onClear = c.fn
		}
	}
	r := l.ring
	if r == nil {
		l.wireq.push(s)
		l.eng.AtKey(l.wireFree, seq, l.clearFn) //tgvet:allow eventdrop(wire-clear always fires; the queued entry is consumed by exactly this event)
		return
	}
	slots := r.slots[vc]
	slots[r.sent[vc]%len(slots)] = s.pkt
	r.sent[vc]++
	// The channel clamps a delay up to 1 ns, so a zero PropDelay crosses
	// in 1 ns, as it did when the arrival was sent at the clear.
	l.fwd.Send(l.wireFree-now+max(l.cfg.PropDelay, 1), r.arrive[vc])
	if onClear != nil {
		l.eng.AtKey(l.wireFree, seq, onClear) //tgvet:allow eventdrop(the sender's clear callback always fires)
	}
}

// wireClear runs on a faulty link when the oldest reserved wire slot's
// packet finishes serializing: the ARQ sends the frame, and the sender's
// clear callback, if any, fires.
func (l *Link) wireClear() {
	w := l.wireq.pop()
	l.inj.send(w.pkt.Channel(), w.pkt)
	if w.onClear != nil {
		w.onClear()
	} else if c := w.clear; c != nil && c.want {
		c.fn()
	}
}

// creditArrive runs on the sender engine when a consumed buffer's credit
// returns; it launches the oldest queued packet on the VC, if any.
func (l *Link) creditArrive(vc packet.VC) {
	l.credits[vc]++
	if l.sendq[vc].len() > 0 {
		l.launch(vc, l.sendq[vc].pop())
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
// consumed buffer's credit to the sender one propagation delay later. It
// must be called from the receiver engine's context. The credit is a
// message on the reverse channel, except on a fault-free link whose two
// ends share an engine while no packet waits on vc: there TryRecv
// reserves the message's key and files the credit as owed, for the
// sender to count or send when it next finds its queue empty (settle).
func (l *Link) TryRecv(vc packet.VC) (*packet.Packet, bool) {
	if l.arrived[vc].len() == 0 {
		return nil, false
	}
	pkt := l.arrived[vc].pop()
	r := l.ring
	if r == nil || r.owed == nil {
		l.rev.Send(l.cfg.PropDelay, l.creditFn[vc])
		return pkt, true
	}
	at, key := l.rev.Reserve(l.cfg.PropDelay)
	if l.sendq[vc].len() > 0 {
		l.rev.SendKey(at, key, l.creditFn[vc])
		return pkt, true
	}
	n := l.cfg.BufPackets
	r.owed[int(vc)*n+r.owedIn[vc]%n] = credit{at, key}
	r.owedIn[vc]++
	return pkt, true
}

// Queued reports the number of arrived-but-unconsumed packets on vc.
func (l *Link) Queued(vc packet.VC) int { return l.arrived[vc].len() }

// SentPackets reports the total packets transmitted.
func (l *Link) SentPackets() int64 { return l.sentPackets }

// SentWords reports the total 8-byte words transmitted.
func (l *Link) SentWords() int64 { return l.sentWords }

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

// String renders the link name and counters.
func (l *Link) String() string {
	return fmt.Sprintf("link %s: %d pkts, %d words, util %.1f%%", l.name, l.sentPackets, l.sentWords, 100*l.Utilization())
}
