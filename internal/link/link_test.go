package link

import (
	"testing"

	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

func testCfg() Config {
	return Config{PropDelay: 10, WordTime: 30, BufPackets: 2}
}

// drain consumes every packet already queued on vc and, from then on,
// every arrival, handing each to fn: the event-driven receiver the
// switch and HIB use.
func drain(l *Link, vc packet.VC, fn func(*packet.Packet)) {
	consume := func() {
		for pkt, ok := l.TryRecv(vc); ok; pkt, ok = l.TryRecv(vc) {
			fn(pkt)
		}
	}
	l.SetNotify(vc, consume)
	consume()
}

// sendChain sends pkts back to back, each launched when the previous one
// clears the wire, and calls done (if non-nil) when the last one has.
func sendChain(l *Link, pkts []*packet.Packet, done func()) {
	if len(pkts) == 0 {
		if done != nil {
			done()
		}
		return
	}
	l.SendEv(pkts[0], func() { sendChain(l, pkts[1:], done) })
}

func TestInOrderDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	const n = 20
	var got []uint64
	// Every packet is offered at once: all but the first two wait for a
	// credit, and must still leave in the order sent.
	for i := 0; i < n; i++ {
		l.SendEv(&packet.Packet{Type: packet.WriteReq, Val: uint64(i)}, nil)
	}
	drain(l, packet.VCRequest, func(pkt *packet.Packet) { got = append(got, pkt.Val) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d packets, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
}

func TestTransferTiming(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	var recvAt sim.Time
	l.SendEv(&packet.Packet{Type: packet.WriteReq}, nil) // header only: 40 B = 5 words
	drain(l, packet.VCRequest, func(*packet.Packet) { recvAt = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 5 words * 30 ns + 10 ns propagation = 160 ns.
	if recvAt != 160 {
		t.Fatalf("packet arrived at %v, want 160ns", recvAt)
	}
}

func TestBackPressureBlocksSender(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg()) // 2 credits
	var thirdSendDone sim.Time
	pkts := []*packet.Packet{{Type: packet.WriteReq}, {Type: packet.WriteReq}, {Type: packet.WriteReq}}
	sendChain(l, pkts, func() { thirdSendDone = e.Now() })
	// Hold buffers: no credits returned until t=10000.
	e.At(10000, func() { drain(l, packet.VCRequest, func(*packet.Packet) {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if thirdSendDone < 10000 {
		t.Fatalf("third send completed at %v; back-pressure should stall it past 10000", thirdSendDone)
	}
}

func TestVCIsolation(t *testing.T) {
	// A full request VC must not block the reply VC (deadlock avoidance).
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	var replyAt sim.Time
	// Two requests fill the request VC's credits; the reply must still
	// go through.
	pkts := []*packet.Packet{{Type: packet.WriteReq}, {Type: packet.WriteReq}, {Type: packet.ReadReply}}
	sendChain(l, pkts, nil)
	drain(l, packet.VCReply, func(*packet.Packet) { replyAt = e.Now() })
	e.At(1_000_000, func() { drain(l, packet.VCRequest, func(*packet.Packet) {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if replyAt == 0 || replyAt >= 1_000_000 {
		t.Fatalf("reply stuck behind full request VC: arrived at %v", replyAt)
	}
}

func TestPipelinedThroughput(t *testing.T) {
	// A long stream should complete at roughly wire rate: the link is the
	// bottleneck, not per-packet round trips.
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	const n = 100
	var done sim.Time
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = &packet.Packet{Type: packet.WriteReq}
	}
	sendChain(l, pkts, nil)
	received := 0
	drain(l, packet.VCRequest, func(*packet.Packet) {
		if received++; received == n {
			done = e.Now()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	perPacket := 5 * sim.Time(30) // 5 words * WordTime
	want := sim.Time(n)*perPacket + 10
	if done != want {
		t.Fatalf("stream finished at %v, want wire-rate %v", done, want)
	}
}

func TestTryRecvAndCounters(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	if _, ok := l.TryRecv(packet.VCRequest); ok {
		t.Fatal("TryRecv on empty link succeeded")
	}
	l.SendEv(&packet.Packet{Type: packet.WriteReq}, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Queued(packet.VCRequest) != 1 {
		t.Fatalf("Queued = %d", l.Queued(packet.VCRequest))
	}
	pkt, ok := l.TryRecv(packet.VCRequest)
	if !ok || pkt.Type != packet.WriteReq {
		t.Fatal("TryRecv failed after delivery")
	}
	if l.SentPackets() != 1 || l.SentWords() != 5 {
		t.Fatalf("counters: %d pkts %d words", l.SentPackets(), l.SentWords())
	}
	if l.BusyTime() != 150 {
		t.Fatalf("busy = %v", l.BusyTime())
	}
	if l.Utilization() <= 0 {
		t.Fatal("utilization should be positive")
	}
	if l.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig()
	if c.WordTime <= 0 || c.BufPackets <= 0 || c.PropDelay < 0 {
		t.Fatalf("bad default config %+v", c)
	}
	// Defensive clamps in New.
	l := New(sim.NewEngine(1), "x", Config{})
	if l.Config().BufPackets != 1 || l.Config().WordTime != 1 {
		t.Fatalf("New did not clamp zero config: %+v", l.Config())
	}
}
