package link

import (
	"fmt"
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
	if l.busy != 150 {
		t.Fatalf("busy = %v", l.busy)
	}
	if l.Utilization() <= 0 {
		t.Fatal("utilization should be positive")
	}
	if l.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestDefaultConfigSane: the zero Config builds a usable link, clamped
// to one buffer slot and a one-nanosecond word.
func TestDefaultConfigSane(t *testing.T) {
	l := New(sim.NewEngine(1), "x", Config{})
	if l.Config().BufPackets != 1 || l.Config().WordTime != 1 {
		t.Fatalf("New did not clamp zero config: %+v", l.Config())
	}
}

// TestClearSameInstantOrder: a Clear handle's packet clears at the key
// its launch reserved. An event at the clear instant scheduled before
// the launch still finds the handle busy, and the callback it asks for
// with Notify runs between it and an event scheduled after the launch,
// which finds the handle free: the order an eager clear event gave.
func TestClearSameInstantOrder(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, "t", testCfg())
	var c Clear
	var order []string
	c.Init(func() { order = append(order, "clear") })
	e.At(150, func() {
		if !c.Busy() {
			t.Error("an event keyed before the clear found the handle free")
		}
		c.Notify()
		order = append(order, "before")
	})
	l.SendClear(&packet.Packet{Type: packet.WriteReq}, &c) // 5 words: clears at 150
	e.At(150, func() {
		if c.Busy() {
			t.Error("an event keyed after the clear found the handle busy")
		}
		order = append(order, "after")
	})
	drain(l, packet.VCRequest, func(*packet.Packet) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[before clear after]" {
		t.Fatalf("order %s, want [before clear after]", got)
	}
}

// TestClearNotifyWhileQueued: Notify on a packet still waiting for a
// credit schedules its clear when the packet launches, one transfer
// time after the credit returns.
func TestClearNotifyWhileQueued(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testCfg()
	cfg.BufPackets = 1
	l := New(e, "t", cfg)
	var c Clear
	clearAt := sim.Time(-1)
	c.Init(func() { clearAt = e.Now() })
	l.SendEv(&packet.Packet{Type: packet.WriteReq}, nil) // takes the one credit
	l.SendClear(&packet.Packet{Type: packet.WriteReq}, &c)
	if !c.Busy() {
		t.Fatal("a packet waiting for a credit: handle not busy")
	}
	c.Notify()
	drain(l, packet.VCRequest, func(*packet.Packet) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The first packet arrives at 160, its credit is back at 170, and
	// the second clears the wire 150 ns later.
	if clearAt != 320 {
		t.Fatalf("clear callback ran at %v, want 320ns", clearAt)
	}
	if c.Busy() {
		t.Fatal("handle still busy after the run")
	}
}

// TestClearEventsOnDemand: a fault-free link runs no event at a wire
// clear nobody waits on, while a faulty link keeps its clear event (the
// ARQ sends the frame there) and runs a Notify callback from it.
func TestClearEventsOnDemand(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		e := sim.NewEngine(1)
		cfg := testCfg()
		if faulty {
			cfg.Faults = &FaultPlan{Seed: 1, DropProb: 1e-9}
		}
		l := New(e, "t", cfg)
		var c Clear
		clearAt := sim.Time(-1)
		c.Init(func() { clearAt = e.Now() })
		l.SendEv(&packet.Packet{Type: packet.WriteReq}, nil)
		l.SendClear(&packet.Packet{Type: packet.WriteReq, Val: 1}, &c)
		c.Notify()
		// The first packet clears at 150 and arrives at 160.
		if err := e.RunUntil(150); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if faulty {
			want = 1
		}
		if got := e.Executed(); got != want {
			t.Errorf("faulty=%v: %d items ran by the first clear, want %d", faulty, got, want)
		}
		if err := e.RunUntil(300); err != nil {
			t.Fatal(err)
		}
		if clearAt != 300 {
			t.Errorf("faulty=%v: clear callback ran at %v, want 300ns", faulty, clearAt)
		}
	}
}

// creditLog is what each half of a link saw in a creditTraffic run, in
// its own engine's order: the sender's wire clears, the receiver's
// arrivals and consumptions, each as "what vc val @time".
type creditLog struct {
	snd, rcv []string
	now      sim.Time
}

// creditTraffic runs random traffic over a fault-free link with a small
// buffer: a sender offering packets on two VCs at random gaps, and a
// receiver that consumes each arrival after a random lag, so credits
// run out and packets wait. The two RNGs are each drawn on one half
// only, so the draws do not depend on the layout.
func creditTraffic(snd, rcv *sim.Engine, seed uint64, run func() error, now func() sim.Time) (creditLog, error) {
	var lg creditLog
	cfg := Config{PropDelay: 40, WordTime: 2, BufPackets: 3}
	l := NewCross(snd, rcv, "t", cfg)
	srng, rrng := sim.NewRNG(seed), sim.NewRNG(seed^0x5eed)
	types := []packet.Type{packet.WriteReq, packet.ReadReply}
	left := 300
	var offer func()
	offer = func() {
		for k := 1 + srng.Intn(3); k > 0 && left > 0; k-- {
			pkt := &packet.Packet{Type: types[srng.Intn(2)], Val: uint64(left)}
			var onClear func()
			if srng.Bool(0.5) {
				tag := fmt.Sprintf("clear %d %d", pkt.Channel(), pkt.Val)
				onClear = func() { lg.snd = append(lg.snd, fmt.Sprintf("%s @%d", tag, snd.Now())) }
			}
			l.SendEv(pkt, onClear)
			left--
		}
		if left > 0 {
			snd.Schedule(srng.Duration(60), offer)
		}
	}
	snd.At(0, offer)
	for _, vc := range []packet.VC{packet.VCRequest, packet.VCReply} {
		consume := func() {
			pkt, _ := l.TryRecv(vc)
			lg.rcv = append(lg.rcv, fmt.Sprintf("consume %d %d @%d", vc, pkt.Val, rcv.Now()))
		}
		l.SetNotify(vc, func() {
			lg.rcv = append(lg.rcv, fmt.Sprintf("arrive %d @%d", vc, rcv.Now()))
			rcv.Schedule(rrng.Duration(120), consume)
		})
	}
	err := run()
	lg.now = now()
	return lg, err
}

// TestCreditsLayoutInvariant: credits returned on demand change no
// timing. The same random traffic runs with both ends on one engine,
// standalone and as one shard of two, where TryRecv owes its credits
// until a sender waits, and with the ends on two shards, where every
// credit is a message: every wire clear, arrival and consumption, and
// the drained clock, must be the same.
func TestCreditsLayoutInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := sim.NewGroup(1, 2)
		want, err := creditTraffic(g.Shard(0), g.Shard(1), seed, g.Run, g.Now)
		if err != nil {
			t.Fatal(err)
		}
		if g.Elided() != 0 {
			t.Fatalf("seed %d: %d credits elided across two shards, want 0", seed, g.Elided())
		}
		eager := g.Executed()
		e := sim.NewEngine(1)
		one, err := creditTraffic(e, e, seed, e.Run, e.Now)
		if err != nil {
			t.Fatal(err)
		}
		g1 := sim.NewGroup(1, 2)
		shard, err := creditTraffic(g1.Shard(1), g1.Shard(1), seed, g1.Run, g1.Now)
		if err != nil {
			t.Fatal(err)
		}
		if g1.Elided() == 0 || g1.Executed()+g1.Elided() != eager {
			t.Fatalf("seed %d: one shard of two ran %d items and elided %d; two shards ran %d",
				seed, g1.Executed(), g1.Elided(), eager)
		}
		for _, got := range []struct {
			layout string
			lg     creditLog
		}{{"one engine", one}, {"one shard of two", shard}} {
			if d := firstDiff(got.lg.snd, want.snd); d != "" {
				t.Fatalf("seed %d: %s, sender: %s", seed, got.layout, d)
			}
			if d := firstDiff(got.lg.rcv, want.rcv); d != "" {
				t.Fatalf("seed %d: %s, receiver: %s", seed, got.layout, d)
			}
			if got.lg.now != want.now {
				t.Fatalf("seed %d: %s drained at %d, two shards at %d", seed, got.layout, got.lg.now, want.now)
			}
		}
	}
}

// firstDiff describes the first entry where got and want differ, or
// returns "" if they are equal.
func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("entry %d is %q, two shards have %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, two shards have %d", len(got), len(want))
	}
	return ""
}
