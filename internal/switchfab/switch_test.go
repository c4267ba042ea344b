package switchfab

import (
	"testing"

	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

func lcfg() link.Config { return link.Config{PropDelay: 10, WordTime: 30, BufPackets: 2} }

// harness builds a 2-port switch with endpoint links.
type harness struct {
	eng  *sim.Engine
	sw   *Switch
	to   [2]*link.Link // endpoint -> switch
	from [2]*link.Link // switch -> endpoint
}

func newHarness() *harness { return newHarnessOut(lcfg()) }

// newHarnessOut is newHarness with switch-to-endpoint links built from
// out.
func newHarnessOut(out link.Config) *harness {
	e := sim.NewEngine(1)
	sw := New(e, "sw", Config{RouteDelay: 100})
	h := &harness{eng: e, sw: sw}
	for i := 0; i < 2; i++ {
		h.to[i] = link.New(e, "up", lcfg())
		h.from[i] = link.New(e, "down", out)
		port := sw.AttachPort(h.to[i], h.from[i])
		if port != i {
			panic("port index")
		}
	}
	sw.SetRoute(0, 0)
	sw.SetRoute(1, 1)
	sw.Start(1)
	return h
}

// onArrive hands every request-VC packet that reaches the far end of l
// to fn, draining l under its notify hook.
func onArrive(l *link.Link, fn func(*packet.Packet)) {
	l.SetNotify(packet.VCRequest, func() {
		for pkt, ok := l.TryRecv(packet.VCRequest); ok; pkt, ok = l.TryRecv(packet.VCRequest) {
			fn(pkt)
		}
	})
}

func TestForwardAndCount(t *testing.T) {
	h := newHarness()
	var got *packet.Packet
	h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Src: 0, Dst: 1, Val: 5}, nil)
	onArrive(h.from[1], func(pkt *packet.Packet) { got = pkt })
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Val != 5 {
		t.Fatal("packet not forwarded")
	}
	if h.sw.Forwarded() != 1 || h.sw.Misroutes() != 0 {
		t.Fatalf("counters %d/%d", h.sw.Forwarded(), h.sw.Misroutes())
	}
	if h.sw.NumPorts() != 2 || h.sw.Name() != "sw" {
		t.Fatal("accessors wrong")
	}
}

func TestRouteDelayIsLatencyNotOccupancy(t *testing.T) {
	// Two back-to-back packets: the second should arrive one wire-time
	// (not wire-time + route-delay) after the first — the route stage is
	// pipelined with transmission.
	h := newHarness()
	var arrivals []sim.Time
	h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Dst: 1}, func() {
		h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Dst: 1}, nil)
	})
	onArrive(h.from[1], func(*packet.Packet) { arrivals = append(arrivals, h.eng.Now()) })
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("received %d", len(arrivals))
	}
	wire := sim.Time(5 * 30) // 5 words x 30ns
	if gap := arrivals[1] - arrivals[0]; gap != wire {
		t.Fatalf("inter-arrival %v, want wire time %v (pipelined switch)", gap, wire)
	}
}

func TestRouteQuery(t *testing.T) {
	h := newHarness()
	if p, ok := h.sw.Route(1); !ok || p != 1 {
		t.Fatal("Route lookup wrong")
	}
	if _, ok := h.sw.Route(9); ok {
		t.Fatal("unknown destination should have no route")
	}
}

func TestAttachAfterStartPanics(t *testing.T) {
	h := newHarness()
	defer func() {
		if recover() == nil {
			t.Fatal("AttachPort after Start did not panic")
		}
	}()
	h.sw.AttachPort(link.New(h.eng, "x", lcfg()), link.New(h.eng, "y", lcfg()))
}

func TestStartIdempotent(t *testing.T) {
	h := newHarness()
	h.sw.Start(packet.NumLayers) // second Start is a no-op
	h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Dst: 1}, nil)
	onArrive(h.from[1], func(*packet.Packet) {})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if h.sw.Forwarded() != 1 {
		t.Fatal("duplicate Start broke forwarding (or duplicated it)")
	}
}

// TestUnbuiltLayerPanics: a switch started with one escape layer has no
// pipes above it, so a packet arriving on layer 1 is a fabric bug, and
// the panic must name the switch, the port and the VC.
func TestUnbuiltLayerPanics(t *testing.T) {
	h := newHarness()
	defer func() {
		msg, _ := recover().(string)
		want := "switchfab: sw: packet arrived on port 0, VC 2, but the fabric routes on 1 escape layers"
		if msg != want {
			t.Fatalf("panic %q, want %q", msg, want)
		}
	}()
	h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Dst: 1, Layer: 1}, nil)
	_ = h.eng.Run()
	t.Fatal("an arrival on an unbuilt layer did not panic")
}

func TestBackPressureThroughSwitch(t *testing.T) {
	// If the destination never drains, the source must eventually stall:
	// total in-flight is bounded by the buffers, nothing is dropped.
	h := newHarness()
	sent := 0
	var next func()
	next = func() { // send the next packet once the previous one clears
		if sent < 100 {
			h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Dst: 1}, func() { sent++; next() })
		}
	}
	next()
	if err := h.eng.RunUntil(1 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Buffers: 2 (ingress link) + 4 (routed queue) + 2 (egress link)
	// plus packets in flight on wires; far fewer than 100.
	if sent > 20 {
		t.Fatalf("sender injected %d packets into a stalled fabric; back-pressure broken", sent)
	}
	if h.sw.Misroutes() != 0 {
		t.Fatal("packets dropped")
	}
}

// newSlowHarness is newHarness with switch-to-endpoint links twice as
// slow as the endpoint-to-switch ones (60 ns words: a header-only
// packet takes 300 ns on the way out, 150 ns on the way in), so routed
// packets queue behind the one on the output wire.
func newSlowHarness() *harness {
	slow := lcfg()
	slow.WordTime = 60
	return newHarnessOut(slow)
}

// TestForwardedAtDeadline: Forwarded counts a packet once it has
// cleared the output wire, also when RunUntil stops exactly at the
// clear and no event ran there. Three packets clear the output wire at
// 410, 560 and 710 ns; the third clear is nobody's event, and the
// second coincides with the third packet's route-done, keyed after it.
func TestForwardedAtDeadline(t *testing.T) {
	h := newHarness()
	for i := 0; i < 3; i++ {
		h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Dst: 1}, nil)
	}
	onArrive(h.from[1], func(*packet.Packet) {})
	for _, c := range []struct {
		at   sim.Time
		want int64
	}{{409, 0}, {410, 1}, {559, 1}, {560, 2}, {709, 2}, {710, 3}} {
		if err := h.eng.RunUntil(c.at); err != nil {
			t.Fatal(err)
		}
		if got := h.sw.Forwarded(); got != c.want {
			t.Errorf("RunUntil(%d): Forwarded() = %d, want %d", c.at, got, c.want)
		}
	}
}

// TestRoutedBacklogDrains: with the output wire slower than the route
// stage, routed packets queue behind the one on the wire, and each
// launch must ask for its clear while any wait: otherwise the packets
// left in the buffer, with the route stage stalled behind a held one,
// would never leave.
func TestRoutedBacklogDrains(t *testing.T) {
	h := newSlowHarness()
	const n = 12
	for i := 0; i < n; i++ {
		h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Dst: 1, Val: uint64(i)}, nil)
	}
	var got []uint64
	var last sim.Time
	onArrive(h.from[1], func(pkt *packet.Packet) {
		got = append(got, pkt.Val)
		last = h.eng.Now()
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d of %d packets delivered: the output stage stalled", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery order %v", got)
		}
	}
	// The output wire is the bottleneck: back to back after the first.
	if first := sim.Time(160 + 100 + 300 + 10); last != first+(n-1)*300 {
		t.Fatalf("last delivery at %v, want %v", last, first+(n-1)*300)
	}
	if h.sw.Forwarded() != n {
		t.Fatalf("Forwarded() = %d, want %d", h.sw.Forwarded(), n)
	}
}

// TestForwardAllocs: once warmed, forwarding through a switch whose
// output stage keeps asking for clear events allocates nothing per
// packet (a method value handed to the engine per clear would).
func TestForwardAllocs(t *testing.T) {
	h := newSlowHarness()
	free := make([]*packet.Packet, 8)
	for i := range free {
		free[i] = &packet.Packet{Type: packet.WriteReq, Dst: 1}
	}
	sending := false
	var next func()
	next = func() { // the source sends the next free packet at each clear
		sending = len(free) > 0
		if sending {
			pkt := free[len(free)-1]
			free = free[:len(free)-1]
			h.to[0].SendEv(pkt, next)
		}
	}
	onArrive(h.from[1], func(pkt *packet.Packet) {
		free = append(free, pkt)
		if !sending {
			next()
		}
	})
	next()
	window := func() {
		if err := h.eng.RunUntil(h.eng.Now() + 30*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	window()
	before := h.sw.Forwarded()
	if n := testing.AllocsPerRun(10, window); n != 0 {
		t.Errorf("%.1f allocations per 30 µs window, want 0", n)
	}
	if d := h.sw.Forwarded() - before; d < 10*90 {
		t.Fatalf("forwarded %d packets in 11 windows, want at least %d", d, 10*90)
	}
}
