package topology

import (
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/sim"
)

func TestTreeLevels(t *testing.T) {
	cases := []struct {
		n, radix int
		want     []int
	}{
		{1, 2, []int{1}},
		{4, 4, []int{1}},
		{10, 3, []int{4, 2, 1}},
		{64, 4, []int{16, 4, 1}},
		{1024, 4, []int{256, 64, 16, 4, 1}},
	}
	for _, c := range cases {
		got := treeLevels(c.n, c.radix)
		if len(got) != len(c.want) {
			t.Fatalf("treeLevels(%d,%d) = %v, want %v", c.n, c.radix, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("treeLevels(%d,%d) = %v, want %v", c.n, c.radix, got, c.want)
			}
		}
	}
}

func TestTreeAnchor(t *testing.T) {
	// 10 nodes, radix 3, each node on its own shard: leaf switches sit
	// with nodes 0,3,6,9; level-1 with 0,9; the root with 0.
	g := sim.NewGroup(1, 10)
	n := Build(Spec{Kind: "tree", Nodes: 10, Radix: 3}, g.Shard, lcfg(), scfg())
	want := []int{0, 3, 6, 9, 0, 9, 0}
	if len(n.Switches) != len(want) {
		t.Fatalf("switch count = %d, want %d", len(n.Switches), len(want))
	}
	for s, w := range want {
		if got := n.Switches[s].Engine().Shard(); got != w {
			t.Errorf("switch %d (%s) on shard %d, want %d", s, n.Switches[s].Name(), got, w)
		}
	}
}

func TestTreeDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "tree", Nodes: 10, Radix: 3})
	if n.Kind() != "tree" || n.NumNodes() != 10 {
		t.Fatalf("kind=%s nodes=%d", n.Kind(), n.NumNodes())
	}
	if len(n.Switches) != 7 {
		t.Fatalf("switch count = %d, want 7", len(n.Switches))
	}
	var sends [][3]uint64
	val := uint64(100)
	for i := 0; i < 10; i++ {
		for _, d := range []int{(i + 1) % 10, (i + 7) % 10} {
			if d == i {
				continue
			}
			sends = append(sends, [3]uint64{uint64(i), uint64(d), val})
			val++
		}
	}
	got := runTraffic(t, n, e, sends)
	want := make(map[addrspace.NodeID]int)
	for _, s := range sends {
		want[addrspace.NodeID(s[1])]++
	}
	for dst, cnt := range want {
		if len(got[dst]) != cnt {
			t.Errorf("node %v received %d packets, want %d", dst, len(got[dst]), cnt)
		}
	}
	for _, sw := range n.Switches {
		if sw.Misroutes() != 0 {
			t.Errorf("switch %s misrouted %d packets", sw.Name(), sw.Misroutes())
		}
	}
}

func TestSpanningTreeStar(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "star", Nodes: 5})
	parts := []addrspace.NodeID{0, 1, 2, 3, 4}
	trees := n.SpanningTree(0, parts)
	if len(trees) != 1 {
		t.Fatalf("star spanning tree has %d switches, want 1", len(trees))
	}
	p := trees[0].Plan
	if p.Expect != 4 || p.UpPort != 0 || p.Rep != 1 {
		t.Fatalf("star plan = %+v", p)
	}
	if len(p.Legs) != 4 {
		t.Fatalf("star legs = %+v", p.Legs)
	}
	for i, leg := range p.Legs {
		if leg.Port != i+1 || leg.Rep != addrspace.NodeID(i+1) {
			t.Fatalf("leg %d = %+v", i, leg)
		}
	}
}

func TestSpanningTreeChain(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "chain", Nodes: 6, PerSwitch: 2})
	parts := []addrspace.NodeID{0, 1, 2, 3, 4, 5}
	trees := n.SpanningTree(2, parts) // root on the middle switch
	if len(trees) != 3 {
		t.Fatalf("chain spanning tree has %d switches, want 3", len(trees))
	}
	// sw0's subtree is {0,1}; sw1 (root's switch) sees everyone but the
	// root; sw2's subtree is {4,5}.
	wantExpect := map[string]int{"sw0": 2, "sw1": 5, "sw2": 2}
	for _, st := range trees {
		if st.Plan.Expect != wantExpect[st.Switch.Name()] {
			t.Errorf("%s expect = %d, want %d", st.Switch.Name(), st.Plan.Expect, wantExpect[st.Switch.Name()])
		}
	}
}

func TestSpanningTreeSubset(t *testing.T) {
	e := sim.NewEngine(1)
	n := build(e, Spec{Kind: "tree", Nodes: 8, Radix: 2})
	trees := n.SpanningTree(1, []addrspace.NodeID{1, 5, 7})
	// Switches covering only non-participants must be omitted.
	total := 0
	for _, st := range trees {
		if st.Plan.Expect < 1 {
			t.Errorf("%s has empty subtree", st.Switch.Name())
		}
		if st.Plan.Expect > total {
			total = st.Plan.Expect
		}
	}
	if total != 2 {
		t.Errorf("largest subtree = %d, want 2 (both non-root participants)", total)
	}
}
