package topology

import (
	"fmt"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/switchfab"
)

func lcfg() link.Config {
	return link.Config{PropDelay: 10, WordTime: 30, BufPackets: 4}
}
func scfg() switchfab.Config { return switchfab.Config{RouteDelay: 100} }

// build assembles spec with every node and switch on e.
func build(e *sim.Engine, spec Spec) *Network {
	return Build(spec, func(int) *sim.Engine { return e }, lcfg(), scfg())
}

// buildTorusDims assembles the torus over explicit dims on e, with or
// without the dateline escape.
func buildTorusDims(e *sim.Engine, dims []int, datelines bool) *Network {
	b := &builder{Network: &Network{kind: fmt.Sprintf("torus%dd", len(dims))},
		place: func(int) *sim.Engine { return e }, lcfg: lcfg(), scfg: scfg()}
	b.buildTorus(dims, datelines)
	for _, sw := range b.Switches {
		sw.Start(packet.NumLayers)
	}
	return b.Network
}

// sendChain injects pkts, which share a source node, back to back: each
// is launched when the previous one clears the injection wire.
func sendChain(n *Network, pkts []*packet.Packet) {
	if len(pkts) > 0 {
		n.SendEv(pkts[0], func() { sendChain(n, pkts[1:]) })
	}
}

// onArrive hands every request-VC packet delivered to node to fn,
// draining the node's delivery link under its notify hook.
func onArrive(n *Network, node addrspace.NodeID, fn func(*packet.Packet)) {
	n.SetNotify(node, packet.VCRequest, func() {
		for pkt, ok := n.TryRecv(node, packet.VCRequest); ok; pkt, ok = n.TryRecv(node, packet.VCRequest) {
			fn(pkt)
		}
	})
}

// runTraffic sends packets (src,dst,val), each source's in order, and
// collects what each node receives.
func runTraffic(t *testing.T, n *Network, e *sim.Engine, sends [][3]uint64) map[addrspace.NodeID][]uint64 {
	t.Helper()
	got := make(map[addrspace.NodeID][]uint64)
	received := 0
	perSrc := make([][]*packet.Packet, n.NumNodes())
	for _, s := range sends {
		perSrc[s[0]] = append(perSrc[s[0]], &packet.Packet{
			Type: packet.WriteReq,
			Src:  addrspace.NodeID(s[0]),
			Dst:  addrspace.NodeID(s[1]),
			Val:  s[2],
		})
	}
	for _, list := range perSrc {
		sendChain(n, list)
	}
	for i := 0; i < n.NumNodes(); i++ {
		id := addrspace.NodeID(i)
		onArrive(n, id, func(pkt *packet.Packet) {
			got[id] = append(got[id], pkt.Val)
			received++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if received != len(sends) {
		t.Fatalf("delivered %d of %d packets", received, len(sends))
	}
	return got
}

func TestPairDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "pair", Nodes: 2})
	if n.NumNodes() != 2 || n.Kind() != "pair" {
		t.Fatalf("pair built wrong: %d nodes", n.NumNodes())
	}
	got := runTraffic(t, n, e, [][3]uint64{{0, 1, 10}, {0, 1, 11}, {1, 0, 20}})
	if len(got[1]) != 2 || got[1][0] != 10 || got[1][1] != 11 {
		t.Fatalf("node 1 received %v", got[1])
	}
	if len(got[0]) != 1 || got[0][0] != 20 {
		t.Fatalf("node 0 received %v", got[0])
	}
}

func TestStarDeliveryAllPairs(t *testing.T) {
	e := sim.NewEngine(1)
	const nn = 4
	n := build(e, Spec{Kind: "star", Nodes: nn})
	var sends [][3]uint64
	val := uint64(100)
	for s := 0; s < nn; s++ {
		for d := 0; d < nn; d++ {
			if s == d {
				continue
			}
			sends = append(sends, [3]uint64{uint64(s), uint64(d), val})
			val++
		}
	}
	got := runTraffic(t, n, e, sends)
	count := 0
	for _, vs := range got {
		count += len(vs)
	}
	if count != len(sends) {
		t.Fatalf("received %d, want %d", count, len(sends))
	}
	if n.Switches[0].Misroutes() != 0 {
		t.Fatalf("misroutes: %d", n.Switches[0].Misroutes())
	}
}

func TestStarInOrderPerPair(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "star", Nodes: 3})
	var sends [][3]uint64
	for i := 0; i < 50; i++ {
		sends = append(sends, [3]uint64{0, 2, uint64(i)})
	}
	got := runTraffic(t, n, e, sends)
	for i, v := range got[2] {
		if v != uint64(i) {
			t.Fatalf("out-of-order delivery at %d: %v", i, got[2][:i+1])
		}
	}
}

func TestChainMultiHop(t *testing.T) {
	e := sim.NewEngine(1)
	// 6 nodes, 2 per switch -> 3 switches; 0 and 5 are 3 switch hops apart.
	n := build(e, Spec{Kind: "chain", Nodes: 6, PerSwitch: 2})
	if len(n.Switches) != 3 {
		t.Fatalf("chain has %d switches, want 3", len(n.Switches))
	}
	got := runTraffic(t, n, e, [][3]uint64{
		{0, 5, 1}, {5, 0, 2}, {0, 1, 3}, {2, 3, 4}, {4, 1, 5},
	})
	if len(got[5]) != 1 || got[5][0] != 1 {
		t.Fatalf("end-to-end chain delivery failed: %v", got[5])
	}
	if len(got[0]) != 1 || got[0][0] != 2 {
		t.Fatalf("reverse chain delivery failed: %v", got[0])
	}
	if len(got[1]) != 2 {
		t.Fatalf("node 1 should receive 2 packets: %v", got[1])
	}
	for _, sw := range n.Switches {
		if sw.Misroutes() != 0 {
			t.Fatalf("switch %s misrouted", sw.Name())
		}
	}
}

func TestChainInOrderAcrossHops(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "chain", Nodes: 8, PerSwitch: 2})
	var sends [][3]uint64
	for i := 0; i < 100; i++ {
		sends = append(sends, [3]uint64{0, 7, uint64(i)})
	}
	got := runTraffic(t, n, e, sends)
	for i, v := range got[7] {
		if v != uint64(i) {
			t.Fatalf("multi-hop reorder at %d: got %d", i, v)
		}
	}
}

func TestChainLatencyGrowsWithHops(t *testing.T) {
	measure := func(dst addrspace.NodeID) sim.Time {
		e := sim.NewEngine(1)
		n := build(e, Spec{Kind: "chain", Nodes: 8, PerSwitch: 2})
		var arrival sim.Time
		n.SendEv(&packet.Packet{Type: packet.WriteReq, Src: 0, Dst: dst}, nil)
		onArrive(n, dst, func(*packet.Packet) { arrival = e.Now() })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return arrival
	}
	near := measure(1) // same switch
	far := measure(7)  // 3 switches away
	if far <= near {
		t.Fatalf("far latency %v should exceed near latency %v", far, near)
	}
}

func TestSwitchRouteValidation(t *testing.T) {
	e := sim.NewEngine(1)
	sw := switchfab.New(e, "sw", scfg())
	defer func() {
		if recover() == nil {
			t.Fatal("SetRoute to nonexistent port should panic")
		}
	}()
	sw.SetRoute(0, 3)
}

func TestMisrouteCounted(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "star", Nodes: 2})
	// Node 9 does not exist; the switch should count a misroute.
	n.SendEv(&packet.Packet{Type: packet.WriteReq, Src: 0, Dst: 9}, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Switches[0].Misroutes() != 1 {
		t.Fatalf("misroutes = %d, want 1", n.Switches[0].Misroutes())
	}
}

func TestNodeLinkAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "star", Nodes: 2})
	if n.NodeEgress(0) == nil || n.NodeIngress(1) == nil {
		t.Fatal("link accessors returned nil")
	}
	if _, ok := n.TryRecv(0, packet.VCRequest); ok {
		t.Fatal("TryRecv on idle network returned a packet")
	}
}
