package link

import (
	"fmt"
	"testing"

	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// traffic keeps one VC of a link busy from event context: every wire
// clear launches the next packet, and the receiver's notify hook
// consumes arrivals. Consumed packets go back on the free list, so a
// warmed driver allocates nothing itself. keep leaves that many packets
// unconsumed in the arrival queue, so it never drains either.
type traffic struct {
	l     *Link
	vc    packet.VC
	limit int // stop after this many sends; negative: never stop
	keep  int
	sent  int
	free  []*packet.Packet
	got   []string // "val@time" per delivery, when record is set
	rec   bool
	next  func()
}

func newTraffic(l *Link, limit int) *traffic {
	tr := &traffic{l: l, vc: packet.VCRequest, limit: limit}
	tr.next = tr.send
	l.SetNotify(tr.vc, tr.recv)
	return tr
}

// send launches packet number tr.sent, then chains on its wire clear.
func (tr *traffic) send() {
	if tr.limit >= 0 && tr.sent >= tr.limit {
		return
	}
	var pkt *packet.Packet
	if n := len(tr.free); n > 0 {
		pkt = tr.free[n-1]
		tr.free = tr.free[:n-1]
	} else {
		pkt = &packet.Packet{Type: packet.WriteReq}
	}
	pkt.Val = uint64(tr.sent)
	tr.sent++
	tr.l.SendEv(pkt, tr.next)
}

// recv consumes arrivals down to tr.keep queued packets.
func (tr *traffic) recv() {
	for tr.l.Queued(tr.vc) > tr.keep {
		pkt, _ := tr.l.TryRecv(tr.vc)
		if tr.rec {
			tr.got = append(tr.got, fmt.Sprintf("%d@%d", pkt.Val, tr.l.reng.Now()))
		}
		tr.free = append(tr.free, pkt)
	}
}

// chaos is a fault plan harsh enough to exercise every ARQ path.
func chaos(seed int64) *FaultPlan {
	return &FaultPlan{
		Seed: seed, DropProb: 0.25, DupProb: 0.2, ReorderProb: 0.25,
		JitterMax: 50, ReorderDelay: 400,
	}
}

// checkInOrder fails unless got holds deliveries 0..n-1 exactly once, in
// order.
func checkInOrder(t *testing.T, got []string, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%d deliveries, want %d", len(got), n)
	}
	for i, d := range got {
		var v, at int
		if _, err := fmt.Sscanf(d, "%d@%d", &v, &at); err != nil || v != i {
			t.Fatalf("delivery %d is %q, want value %d", i, d, i)
		}
	}
}

// TestSteadyTrafficAllocs pins the fault-free same-engine datapath at
// zero allocations per packet: with a 1 µs wire about seven packets are
// in flight, so the wire ring never empties, and the receiver leaves
// two packets queued, so the arrival queue never drains either. Both
// must reuse their arrays instead of growing them.
func TestSteadyTrafficAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "steady", Config{PropDelay: 1000, WordTime: 30, BufPackets: 16})
	tr := newTraffic(l, -1)
	tr.keep = 2
	tr.send()
	if err := e.RunUntil(100_000); err != nil {
		t.Fatal(err)
	}
	sent := tr.sent
	if avg := testing.AllocsPerRun(100, func() {
		if err := e.RunUntil(e.Now() + 10_000); err != nil {
			t.Fatal(err)
		}
		inFlight := l.ring.sent[tr.vc] - l.ring.read[tr.vc]
		if inFlight == 0 || l.Queued(tr.vc) != tr.keep {
			t.Fatalf("in flight %d, queued %d: the queues drained", inFlight, l.Queued(tr.vc))
		}
	}); avg != 0 {
		t.Errorf("%.2f allocs per 10 µs of traffic, want 0", avg)
	}
	if tr.sent-sent < 100*50 {
		t.Fatalf("only %d packets in the measured runs", tr.sent-sent)
	}
	if c := cap(l.ring.slots[tr.vc]); c > 16 {
		t.Errorf("wire ring grew to %d slots for about 7 packets in flight", c)
	}
}

// TestFaultyLinkAllocs pins a same-engine faulty link at zero
// allocations per frame once its sender window, reorder buffer and frame
// records have grown to the traffic's high-water mark.
func TestFaultyLinkAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "faulty", Config{PropDelay: 100, WordTime: 10, BufPackets: 8, Faults: chaos(7)})
	tr := newTraffic(l, -1)
	tr.send()
	if err := e.RunUntil(20_000_000); err != nil {
		t.Fatal(err)
	}
	sent := tr.sent
	if avg := testing.AllocsPerRun(100, func() {
		if err := e.RunUntil(e.Now() + 100_000); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("%.2f allocs per 100 µs of faulty traffic, want 0", avg)
	}
	if tr.sent-sent < 100*30 {
		t.Fatalf("only %d packets in the measured runs", tr.sent-sent)
	}
	if s := l.FaultStats(); s.Dropped == 0 || s.Duplicated == 0 || s.Reordered == 0 || s.Retransmits == 0 {
		t.Fatalf("fault plan did not exercise every path: %+v", s)
	}
}

// TestARQWindowGrowth keeps more than 64 frames in flight under heavy
// drops, duplicates and reordering, so the sender window and the
// reorder buffer both double several times. Delivery must stay exactly
// once and in order, and every frame must be acknowledged at the end.
func TestARQWindowGrowth(t *testing.T) {
	e := sim.NewEngine(1)
	const n = 3000
	l := New(e, "wide", Config{PropDelay: 100, WordTime: 1, BufPackets: 128, Faults: chaos(11)})
	tr := newTraffic(l, n)
	tr.rec = true
	tr.send()
	peak := 0
	e.Spawn("sampler", func(p *sim.Proc) {
		for len(tr.got) < n {
			peak = max(peak, l.Unacked())
			p.Sleep(50)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	checkInOrder(t, tr.got, n)
	if u := l.Unacked(); u != 0 {
		t.Fatalf("%d frames unacknowledged at quiescence", u)
	}
	if peak < 64 {
		t.Fatalf("at most %d frames in flight, want at least 64", peak)
	}
	w, r := l.inj.win[tr.vc], l.inj.rx[tr.vc]
	if len(w.slots) < 64 || len(r.held) < 64 {
		t.Fatalf("window %d and reorder buffer %d slots: neither should stay under 64", len(w.slots), len(r.held))
	}
	for i, pkt := range r.held {
		if pkt != nil {
			t.Fatalf("reorder buffer slot %d still holds a frame at quiescence", i)
		}
	}
	s := l.FaultStats()
	if s.Deduped == 0 || s.Buffered == 0 || s.Total() != s.Dropped+s.Duplicated+s.Reordered {
		t.Fatalf("receiver counters not exercised: %+v", s)
	}
}

// warmCrossAllocs runs tr's endless traffic over a cross-shard link for
// warm, then reports the allocations per further window of run time.
func warmCrossAllocs(t *testing.T, g *sim.Group, tr *traffic, warm, window sim.Time) float64 {
	t.Helper()
	tr.send()
	if err := g.RunUntil(warm); err != nil {
		t.Fatal(err)
	}
	sent := tr.sent
	avg := testing.AllocsPerRun(50, func() {
		if err := g.RunUntil(g.Now() + window); err != nil {
			t.Fatal(err)
		}
	})
	if tr.sent-sent < 50*10 {
		t.Fatalf("only %d packets in the measured runs", tr.sent-sent)
	}
	return avg
}

// TestCrossShardFaultyLink runs a faulty link whose two halves sit on
// different shards of a 2-shard group. Its frames and acks cross in the
// same recycled records as on one engine; run under -race it checks the
// halves hand them over through the channels and share no other state.
// Its delivery sequence and fault counters must match the same link on
// one engine, and once warmed it must cross without allocating.
func TestCrossShardFaultyLink(t *testing.T) {
	const n = 600
	cfg := Config{PropDelay: 100, WordTime: 10, BufPackets: 8, Faults: chaos(5)}
	run := func(cross bool) ([]string, FaultStats) {
		var l *Link
		var run func() error
		if cross {
			g := sim.NewGroup(1, 2)
			l = NewCross(g.Shard(0), g.Shard(1), "x", cfg)
			run = g.Run
		} else {
			e := sim.NewEngine(1)
			l = New(e, "x", cfg)
			run = e.Run
		}
		tr := newTraffic(l, n)
		tr.rec = true
		tr.send()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if u := l.Unacked(); u != 0 {
			t.Fatalf("cross=%v: %d frames unacknowledged at quiescence", cross, u)
		}
		return tr.got, l.FaultStats()
	}
	one, oneStats := run(false)
	two, twoStats := run(true)
	checkInOrder(t, one, n)
	if fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("cross-shard deliveries differ from one engine:\n one: %v\n two: %v", one, two)
	}
	if oneStats != twoStats {
		t.Fatalf("fault counters differ: one engine %+v, two shards %+v", oneStats, twoStats)
	}
	if oneStats.Total() == 0 {
		t.Fatal("no faults injected")
	}
	g := sim.NewGroup(1, 2)
	l := NewCross(g.Shard(0), g.Shard(1), "x", cfg)
	if avg := warmCrossAllocs(t, g, newTraffic(l, -1), 20_000_000, 100_000); avg != 0 {
		t.Errorf("warmed cross-shard faulty link: %.2f allocs per 100 µs, want 0", avg)
	}
}

// TestCrossShardCleanLink: a fault-free link across two shards carries
// its packets in the same wire ring as on one engine, delivers in order
// on the same schedule as the one-engine link, and once warmed crosses
// without allocating.
func TestCrossShardCleanLink(t *testing.T) {
	const n = 200
	cfg := Config{PropDelay: 100, WordTime: 10, BufPackets: 4}
	g := sim.NewGroup(1, 2)
	x := NewCross(g.Shard(0), g.Shard(1), "x", cfg)
	e := sim.NewEngine(1)
	s := New(e, "s", cfg)
	var got [2][]string
	for i, c := range []struct {
		l   *Link
		run func() error
	}{{s, e.Run}, {x, g.Run}} {
		tr := newTraffic(c.l, n)
		tr.rec = true
		tr.send()
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		got[i] = tr.got
	}
	checkInOrder(t, got[0], n)
	if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
		t.Fatalf("cross-shard schedule differs:\n one: %v\n two: %v", got[0], got[1])
	}
	if x.inj != nil || x.Unacked() != 0 || x.FaultStats() != (FaultStats{}) {
		t.Fatal("fault-free link reports fault state")
	}
	g = sim.NewGroup(1, 2)
	x = NewCross(g.Shard(0), g.Shard(1), "x", cfg)
	tr := newTraffic(x, -1)
	tr.keep = 2
	if avg := warmCrossAllocs(t, g, tr, 100_000, 10_000); avg != 0 {
		t.Errorf("warmed cross-shard clean link: %.2f allocs per 10 µs, want 0", avg)
	}
}

// reuseRing drives a ring of faulty links the way the HIB's packet pool
// does: each delivered packet is poisoned and at once re-sent, as the
// next frame of the receiver's outgoing link (links[(i+1)%n] for a
// delivery on links[i]), while the link that delivered it may still hold
// the same pointer, unacknowledged, in its ARQ sender window.
type reuseRing struct {
	links []*Link
	limit int        // frames per link
	sent  []int      // per link: frames launched
	got   [][]uint64 // per link: values delivered, in order
}

func newReuseRing(links []*Link, limit int) *reuseRing {
	r := &reuseRing{links: links, limit: limit, sent: make([]int, len(links)), got: make([][]uint64, len(links))}
	for i, l := range links {
		i := i
		l.SetNotify(packet.VCRequest, func() { r.recv(i) })
	}
	return r
}

// poison is what a delivered packet is overwritten with: every field
// wrong, including its class and layer, so a link that read the packet
// again would see another VC, another size and another value.
var poison = packet.Packet{
	Type: packet.CopyData, Src: 0xdead, Dst: 0xbeef, Addr: 0xbad, Addr2: 0xbad,
	Val: 0xdeadbeef, Val2: 0xdeadbeef, Origin: 0xdead, ReqID: 0xdead, Len: 0xdead, Last: true, Layer: 2,
	Data: []uint64{0xdead, 0xdead, 0xdead},
}

// send launches pkt as frame number r.sent[j] of links[j].
func (r *reuseRing) send(j int, pkt *packet.Packet) {
	if r.sent[j] >= r.limit {
		return
	}
	pkt.Type, pkt.Layer, pkt.Data = packet.WriteReq, 0, nil
	pkt.Val = uint64(r.sent[j])
	r.sent[j]++
	r.links[j].SendEv(pkt, nil)
}

// recv consumes links[i]'s arrivals: record, poison, re-send.
func (r *reuseRing) recv(i int) {
	for {
		pkt, ok := r.links[i].TryRecv(packet.VCRequest)
		if !ok {
			return
		}
		r.got[i] = append(r.got[i], pkt.Val)
		*pkt = poison
		r.send((i+1)%len(r.links), pkt)
	}
}

// TestARQNeverReadsDeliveredPacket pins the contract the HIB's packet
// pool relies on: the ARQ sublayer treats a packet pointer as an opaque
// token. A retransmission re-sends the pointer unread, and the receiver
// discards an already-delivered frame by sequence number alone. Under
// heavy drops, duplicates and reordering, every delivered packet is
// poisoned and re-sent at once, so stale copies of its frames are still
// in flight when its fields change. Each link must still deliver its
// frames exactly once and in order. The arms run one link on one
// engine, and a two-link loop on one engine and across two shards
// (under -race, the shards must share no packet reads); the loop's
// fault counters must not depend on the shard count.
func TestARQNeverReadsDeliveredPacket(t *testing.T) {
	const n, tokens = 600, 16
	cfg := Config{PropDelay: 100, WordTime: 10, BufPackets: 8, Faults: chaos(9)}
	var loopStats [2]FaultStats
	for _, arm := range []struct {
		name          string
		links, shards int
	}{{"one link", 1, 1}, {"loop, one engine", 2, 1}, {"loop, two shards", 2, 2}} {
		g := sim.NewGroup(1, arm.shards)
		eng := func(i int) *sim.Engine { return g.Shard(i % arm.shards) }
		links := make([]*Link, arm.links)
		for i := range links {
			links[i] = NewCross(eng(i), eng(i+1), fmt.Sprintf("l%d", i), cfg)
		}
		r := newReuseRing(links, n)
		for k := 0; k < tokens; k++ {
			r.send(0, &packet.Packet{})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		var st FaultStats
		for i, l := range links {
			if len(r.got[i]) != n {
				t.Fatalf("%s: link %d delivered %d frames, want %d", arm.name, i, len(r.got[i]), n)
			}
			for k, v := range r.got[i] {
				if v != uint64(k) {
					t.Fatalf("%s: link %d delivery %d carries frame %d", arm.name, i, k, v)
				}
			}
			if u := l.Unacked(); u != 0 {
				t.Fatalf("%s: link %d has %d frames unacknowledged at quiescence", arm.name, i, u)
			}
			st.Add(l.FaultStats())
		}
		if st.Retransmits == 0 || st.Deduped == 0 || st.Buffered == 0 {
			t.Fatalf("%s: recovery paths not exercised: %+v", arm.name, st)
		}
		t.Logf("%s: %+v", arm.name, st)
		if arm.links == 2 {
			loopStats[arm.shards-1] = st
		}
	}
	if loopStats[0] != loopStats[1] {
		t.Fatalf("loop fault counters differ: one engine %+v, two shards %+v", loopStats[0], loopStats[1])
	}
}

// TestFaultPlanBasics covers the plan and counter helpers and the
// defaults a plan fills in.
func TestFaultPlanBasics(t *testing.T) {
	var nilPlan *FaultPlan
	if nilPlan.Active() || (&FaultPlan{Seed: 1}).Active() {
		t.Fatal("an empty plan is active")
	}
	if !(&FaultPlan{JitterMax: 1}).Active() {
		t.Fatal("a jitter-only plan is inactive")
	}
	a := FaultStats{Dropped: 1, Duplicated: 2, Reordered: 3, Retransmits: 4, Deduped: 5, Buffered: 6}
	b := a
	b.Add(a)
	if b != (FaultStats{2, 4, 6, 8, 10, 12}) || b.Total() != 12 {
		t.Fatalf("Add/Total: %+v total %d", b, b.Total())
	}
	l := New(sim.NewEngine(1), "p", Config{PropDelay: 10, WordTime: 30, Faults: &FaultPlan{DropProb: 0.1}})
	if l.inj == nil {
		t.Fatal("an active plan built no injector")
	}
	if l.inj.plan.ReorderDelay != 2*sim.Microsecond || l.inj.timeout <= 0 {
		t.Fatalf("plan defaults not applied: reorder delay %v, timeout %v", l.inj.plan.ReorderDelay, l.inj.timeout)
	}
	l = New(sim.NewEngine(1), "q", Config{Faults: &FaultPlan{DropProb: 0.1, RetryTimeout: 77}})
	if l.inj.timeout != 77 {
		t.Fatalf("RetryTimeout %v not honoured", l.inj.timeout)
	}
}

// TestFIFOCompacts: a queue that never drains reuses its array once the
// popped prefix makes room, instead of growing it.
func TestFIFOCompacts(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 4; i++ {
		q.push(i)
	}
	next := 0
	c := 0
	for i := 4; i < 1000; i++ {
		if i == 8 {
			c = cap(q.buf) // grown once, to hold the fifth entry
		}
		q.push(i)
		if got := q.pop(); got != next {
			t.Fatalf("pop %d, want %d", got, next)
		}
		next++
	}
	if cap(q.buf) != c || q.len() != 4 {
		t.Fatalf("capacity %d (was %d), length %d", cap(q.buf), c, q.len())
	}
	for q.len() > 0 {
		q.pop()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not reset: head %d len %d", q.head, len(q.buf))
	}
}
