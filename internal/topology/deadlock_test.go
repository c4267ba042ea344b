package topology

// The generative routing/deadlock harness: every kind Build assembles, at
// several sizes each, is checked for all-pairs reachability, route
// minimality (or the class-minimal bound where BFS minimality is not
// the contract), and channel-dependency-graph acyclicity per VC class —
// the Dally/Seitz deadlock-freedom theorem, proved rather than assumed.
// A planted-cycle regression (torus without datelines) keeps the
// checker honest.

import (
	"strings"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/sim"
)

type zooShape struct {
	name    string
	nnodes  int
	minimal bool // routes must be BFS-minimal (torus, fat-tree, fixed shapes)
	bound   int  // max switch hops any route may take
	build   func(e *sim.Engine) *Network
}

// zoo enumerates every shape at three or more sizes, corner shapes
// included (1-wide torus dimensions, the radix-2 fat-tree, partial
// populations).
func zoo() []zooShape {
	var shapes []zooShape
	torus := func(dims ...int) {
		nn, bound := 1, 1
		name := "torus"
		for _, k := range dims {
			nn *= k
			bound += k / 2
			name += "-" + itoa(k)
		}
		shapes = append(shapes, zooShape{
			name: name, nnodes: nn, minimal: true, bound: bound,
			build: func(e *sim.Engine) *Network { return buildTorusDims(e, dims, true) },
		})
	}
	torus(4, 4)
	torus(3, 3)
	torus(8, 8)
	torus(2, 2)
	torus(1, 5) // degenerate: a plain ring with a 1-wide dimension
	torus(2, 3, 4)
	torus(3, 3, 3)
	torus(4, 4, 4)
	for _, nn := range []int{2, 16, 54, 64} { // k = 2, 4, 6, 8 (partial)
		nn := nn
		shapes = append(shapes, zooShape{
			name: "fattree-" + itoa(nn), nnodes: nn, minimal: true, bound: 5,
			build: func(e *sim.Engine) *Network { return build(e, Spec{Kind: "fattree", Nodes: nn}) },
		})
	}
	for _, nn := range []int{16, 48, 72, 96} { // 96 exercises the a=8,h=4 class
		nn := nn
		shapes = append(shapes, zooShape{
			name: "dragonfly-" + itoa(nn), nnodes: nn, minimal: false, bound: 4,
			build: func(e *sim.Engine) *Network { return build(e, Spec{Kind: "dragonfly", Nodes: nn}) },
		})
		shapes = append(shapes, zooShape{
			name: "dragonfly-val-" + itoa(nn), nnodes: nn, minimal: false, bound: 6,
			build: func(e *sim.Engine) *Network { return build(e, Spec{Kind: "dragonfly-val", Nodes: nn}) },
		})
	}
	// The fixed shapes ride the same checkers.
	shapes = append(shapes,
		zooShape{name: "pair", nnodes: 2, minimal: true, bound: 0,
			build: func(e *sim.Engine) *Network { return build(e, Spec{Kind: "pair", Nodes: 2}) }},
		zooShape{name: "star-4", nnodes: 4, minimal: true, bound: 1,
			build: func(e *sim.Engine) *Network { return build(e, Spec{Kind: "star", Nodes: 4}) }},
		zooShape{name: "chain-6", nnodes: 6, minimal: true, bound: 3,
			build: func(e *sim.Engine) *Network { return build(e, Spec{Kind: "chain", Nodes: 6, PerSwitch: 2}) }},
		zooShape{name: "tree-16", nnodes: 16, minimal: true, bound: 5,
			build: func(e *sim.Engine) *Network { return build(e, Spec{Kind: "tree", Nodes: 16, Radix: 4}) }},
	)
	return shapes
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestZooAllPairsReachability(t *testing.T) {
	for _, sh := range zoo() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			n := sh.build(sim.NewEngine(1))
			if n.NumNodes() != sh.nnodes {
				t.Fatalf("built %d nodes, want %d", n.NumNodes(), sh.nnodes)
			}
			if err := n.CheckAllPairs(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestZooRouteMinimality(t *testing.T) {
	for _, sh := range zoo() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			n := sh.build(sim.NewEngine(1))
			if sh.minimal {
				if err := n.CheckMinimal(); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.CheckBounded(sh.bound); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestZooDeadlockFree(t *testing.T) {
	for _, sh := range zoo() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			n := sh.build(sim.NewEngine(1))
			if err := n.CheckDeadlockFree(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlantedCycleDetected keeps the checker honest: a torus whose
// dateline escape is disabled has a genuine channel-dependency cycle on
// every ring of four or more switches, and CheckDeadlockFree must say
// so.
func TestPlantedCycleDetected(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {8}, {4, 4, 4}} {
		n := buildTorusDims(sim.NewEngine(1), dims, false)
		if err := n.CheckAllPairs(); err != nil {
			t.Fatalf("dims %v: routing itself must stay sound: %v", dims, err)
		}
		err := n.CheckDeadlockFree()
		if err == nil {
			t.Fatalf("dims %v: planted cyclic table not detected", dims)
		}
		if !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("dims %v: unexpected error %v", dims, err)
		}
	}
	// The protected torus over the same shapes is clean — the cycle
	// really is the missing dateline, nothing else.
	for _, dims := range [][]int{{4, 4}, {8}, {4, 4, 4}} {
		n := buildTorusDims(sim.NewEngine(1), dims, true)
		if err := n.CheckDeadlockFree(); err != nil {
			t.Fatalf("dims %v: dateline torus reported cyclic: %v", dims, err)
		}
	}
}

// TestTorusDatelineLayers pins the dateline mechanics: a wrapping route
// escapes to layer 1 exactly at the wrap hop, stays there for the rest
// of the ring, and ejects at layer 0.
func TestTorusDatelineLayers(t *testing.T) {
	n := buildTorusDims(sim.NewEngine(1), []int{8}, true)
	hops, err := n.Walk(6, 1) // plus route 6->7->0->1 wraps at 7->0
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 4 {
		t.Fatalf("route 6->1 took %d hops, want 4", len(hops))
	}
	wantOut := []uint8{0, 1, 1, 0} // pre-wrap, wrap escape, post-wrap, eject
	for i, h := range hops {
		if h.OutLayer != wantOut[i] {
			t.Fatalf("hop %d leaves at layer %d, want %d (%+v)", i, h.OutLayer, wantOut[i], hops)
		}
	}
	// A non-wrapping route never leaves layer 0.
	hops, err = n.Walk(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hops {
		if h.InLayer != 0 || (h.OutLayer != 0 && i != len(hops)-1) {
			if h.OutLayer != 0 {
				t.Fatalf("non-wrapping hop %d touched layer %d", i, h.OutLayer)
			}
		}
	}
}

// TestTorusDimensionTurnResetsLayer pins the in-port-aware reset: a
// packet that wrapped in X re-enters the Y ring at layer 0 (a sticky
// layer across dimensions would resurrect the Y-ring cycle).
func TestTorusDimensionTurnResetsLayer(t *testing.T) {
	n := buildTorusDims(sim.NewEngine(1), []int{4, 4}, true)
	// src (3,0) -> dst (0,2): X route 3->0 wraps (layer 1), then the Y
	// ring must restart at layer 0.
	hops, err := n.Walk(3, 8) // node 3 = (3,0); node 8 = (0,2)
	if err != nil {
		t.Fatal(err)
	}
	sawWrap, sawReset := false, false
	for _, h := range hops {
		if h.OutLayer == 1 {
			sawWrap = true
		}
		if sawWrap && h.InLayer == 1 && h.OutLayer == 0 && h.Sw != hops[len(hops)-1].Sw {
			sawReset = true
		}
	}
	last := hops[len(hops)-1]
	if !sawWrap {
		t.Fatalf("route (3,0)->(0,2) never crossed the X dateline: %+v", hops)
	}
	if !sawReset && last.InLayer == 1 {
		t.Fatalf("layer stayed sticky into the Y ring: %+v", hops)
	}
}

// TestDragonflyClassMinimal verifies the dragonfly contract in its own
// terms: minimal routes take at most one global hop and at most one
// local hop on each side; Valiant routes take at most two global hops
// and actually detour (some pair's path is longer than minimal).
func TestDragonflyClassMinimal(t *testing.T) {
	for _, nn := range []int{16, 48, 96} {
		_, a, _, _ := DragonflyShape(nn)
		min := build(sim.NewEngine(1), Spec{Kind: "dragonfly", Nodes: nn})
		val := build(sim.NewEngine(1), Spec{Kind: "dragonfly-val", Nodes: nn})
		detoured := false
		for s := 0; s < nn; s++ {
			for d := 0; d < nn; d++ {
				mh, err := min.Walk(addrspace.NodeID(s), addrspace.NodeID(d))
				if err != nil {
					t.Fatal(err)
				}
				globals := 0
				for i := 1; i < len(mh); i++ {
					if mh[i].Sw/a != mh[i-1].Sw/a {
						globals++
					}
				}
				if globals > 1 {
					t.Fatalf("n=%d minimal route %d->%d crosses %d global trunks", nn, s, d, globals)
				}
				vh, err := val.Walk(addrspace.NodeID(s), addrspace.NodeID(d))
				if err != nil {
					t.Fatal(err)
				}
				vglobals := 0
				maxLayer := uint8(0)
				for i := 1; i < len(vh); i++ {
					if vh[i].Sw/a != vh[i-1].Sw/a {
						vglobals++
					}
				}
				for _, h := range vh {
					if h.OutLayer > maxLayer {
						maxLayer = h.OutLayer
					}
				}
				if vglobals > 2 {
					t.Fatalf("n=%d valiant route %d->%d crosses %d global trunks", nn, s, d, vglobals)
				}
				if vglobals == 2 && maxLayer != 2 {
					t.Fatalf("n=%d valiant two-global route %d->%d peaked at layer %d, want 2", nn, s, d, maxLayer)
				}
				if len(vh) > len(mh) {
					detoured = true
				}
			}
		}
		if nn > 16 && !detoured {
			t.Fatalf("n=%d: valiant routing never detoured", nn)
		}
	}
}

// TestSpanningTreeOnGeneratedShapes checks the walk-derived collective
// spanning tree on cyclic fabrics: participant counts fold correctly
// up the tree and every non-root switch's up port leads to a switch
// that expects arrivals on the matching leg.
func TestSpanningTreeOnGeneratedShapes(t *testing.T) {
	builds := []struct {
		name  string
		build func(e *sim.Engine) *Network
	}{
		{"torus", func(e *sim.Engine) *Network { return buildTorusDims(e, []int{4, 4}, true) }},
		{"dragonfly", func(e *sim.Engine) *Network { return build(e, Spec{Kind: "dragonfly", Nodes: 16}) }},
		{"dragonfly-val", func(e *sim.Engine) *Network { return build(e, Spec{Kind: "dragonfly-val", Nodes: 16}) }},
		{"fattree", func(e *sim.Engine) *Network { return build(e, Spec{Kind: "fattree", Nodes: 16}) }},
	}
	for _, tc := range builds {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(sim.NewEngine(1))
			root := addrspace.NodeID(0)
			var parts []addrspace.NodeID
			for i := 0; i < n.NumNodes(); i++ {
				parts = append(parts, addrspace.NodeID(i))
			}
			trees := n.SpanningTree(root, parts)
			if len(trees) == 0 {
				t.Fatal("empty spanning tree")
			}
			index := make(map[int]SwitchTree) // switch index -> plan
			for _, st := range trees {
				if len(st.Plan.Legs) == 0 || st.Plan.Expect <= 0 {
					t.Fatalf("switch %s has no legs or zero expectation", st.Switch.Name())
				}
				for i, sw := range n.Switches {
					if sw == st.Switch {
						index[i] = st
					}
				}
			}
			// The root's switch must expect every non-root participant.
			st, ok := index[n.nodeSw[root]]
			if !ok || st.Plan.Expect != n.NumNodes()-1 {
				t.Fatalf("root switch expects %d arrivals, want %d", st.Plan.Expect, n.NumNodes()-1)
			}
			// Each non-root tree switch's up port must lead to a tree
			// switch with a leg on the matching trunk port, so combined
			// arrivals fold hop by hop all the way to the root.
			for s := range n.Switches {
				a, ok := index[s]
				if !ok || s == n.nodeSw[root] {
					continue
				}
				peer := n.peers[s][a.Plan.UpPort]
				if peer.sw < 0 {
					t.Fatalf("switch %s up port exits the fabric", n.Switches[s].Name())
				}
				parent, ok := index[peer.sw]
				if !ok {
					t.Fatalf("parent of %s is not in the tree", n.Switches[s].Name())
				}
				found := false
				for _, leg := range parent.Plan.Legs {
					if leg.Port == peer.port {
						found = true
					}
				}
				if !found {
					t.Fatalf("parent %s has no leg on the trunk from %s", n.Switches[peer.sw].Name(), n.Switches[s].Name())
				}
			}
		})
	}
}

func TestShapeSolvers(t *testing.T) {
	for _, nn := range []int{1, 2, 7, 16, 64, 100, 256} {
		dims := TorusDims(nn, 2)
		if dims[0]*dims[1] != nn {
			t.Fatalf("TorusDims(%d, 2) = %v", nn, dims)
		}
		dims = TorusDims(nn, 3)
		if dims[0]*dims[1]*dims[2] != nn {
			t.Fatalf("TorusDims(%d, 3) = %v", nn, dims)
		}
		k := FatTreeK(nn)
		if k%2 != 0 || k*k*k/4 < nn || (k > 2 && (k-2)*(k-2)*(k-2)/4 >= nn) {
			t.Fatalf("FatTreeK(%d) = %d", nn, k)
		}
		p, a, h, g := DragonflyShape(nn)
		if g < 2 || g > a*h+1 || g*a*p < nn {
			t.Fatalf("DragonflyShape(%d) = p%d a%d h%d g%d", nn, p, a, h, g)
		}
	}
	if got := TorusDims(16, 2); got[0] != 4 || got[1] != 4 {
		t.Fatalf("TorusDims(16,2) = %v, want [4 4]", got)
	}
	if got := TorusDims(64, 3); got[0] != 4 || got[1] != 4 || got[2] != 4 {
		t.Fatalf("TorusDims(64,3) = %v, want [4 4 4]", got)
	}
}

// TestReplyRetraceCensus pins which fabrics route a reply around a
// switch its request crossed, and for how many (source, home) pairs.
// The torus and fat-tree routings are not reply-symmetric, which is
// what strands combined fetch&add replies there; the other shapes
// retrace every request.
func TestReplyRetraceCensus(t *testing.T) {
	cases := []struct {
		spec          Spec
		misses, pairs int
	}{
		{Spec{Kind: "torus2d", Nodes: 16}, 176, 240},
		{Spec{Kind: "torus3d", Nodes: 27}, 540, 702},
		{Spec{Kind: "fattree", Nodes: 16}, 160, 240},
		{Spec{Kind: "star", Nodes: 16}, 0, 240},
		{Spec{Kind: "chain", Nodes: 16, PerSwitch: 4}, 0, 240},
		{Spec{Kind: "tree", Nodes: 16, Radix: 4}, 0, 240},
		{Spec{Kind: "dragonfly", Nodes: 16}, 0, 240},
		{Spec{Kind: "dragonfly-val", Nodes: 16}, 0, 240},
		{Spec{Kind: "pair", Nodes: 2}, 0, 2},
	}
	for _, c := range cases {
		n := build(sim.NewEngine(1), c.spec)
		misses, pairs, first, err := n.retraceCensus()
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Kind, err)
		}
		if misses != c.misses || pairs != c.pairs {
			t.Errorf("%s: %d of %d pairs miss a request switch on the reply, want %d of %d",
				c.spec.Kind, misses, pairs, c.misses, c.pairs)
		}
		err = n.CheckReplyRetraces()
		switch {
		case c.misses == 0 && err != nil:
			t.Errorf("%s: %v", c.spec.Kind, err)
		case c.misses != 0 && (err == nil || !strings.Contains(err.Error(), first)):
			t.Errorf("%s: CheckReplyRetraces = %v, want the census's first miss %q", c.spec.Kind, err, first)
		}
	}
}
