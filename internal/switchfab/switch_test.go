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

func newHarness() *harness {
	e := sim.NewEngine(1)
	sw := New(e, "sw", Config{RouteDelay: 100})
	h := &harness{eng: e, sw: sw}
	for i := 0; i < 2; i++ {
		h.to[i] = link.New(e, "up", lcfg())
		h.from[i] = link.New(e, "down", lcfg())
		port := sw.AttachPort(h.to[i], h.from[i])
		if port != i {
			panic("port index")
		}
	}
	sw.SetRoute(0, 0)
	sw.SetRoute(1, 1)
	sw.Start()
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
	h.sw.Start() // second Start is a no-op
	h.to[0].SendEv(&packet.Packet{Type: packet.WriteReq, Dst: 1}, nil)
	onArrive(h.from[1], func(*packet.Packet) {})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if h.sw.Forwarded() != 1 {
		t.Fatal("duplicate Start broke forwarding (or duplicated it)")
	}
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
