package topology

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

func TestSpecCheck(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string // substring of the error; "" = accepted
	}{
		{Spec{Kind: "torus", Nodes: 4}, "unknown fabric"},
		{Spec{Kind: "", Nodes: 4}, "unknown fabric"},
		{Spec{Kind: "star", Nodes: 0}, "at least 1 node"},
		{Spec{Kind: "fattree", Nodes: -3}, "at least 1 node"},
		{Spec{Kind: "pair", Nodes: 3}, "exactly 2 nodes"},
		{Spec{Kind: "pair", Nodes: 1}, "exactly 2 nodes"},
		{Spec{Kind: "chain", Nodes: 8, PerSwitch: 0}, "per switch"},
		{Spec{Kind: "tree", Nodes: 8, Radix: 1}, "radix"},
		{Spec{Kind: "dragonfly", Nodes: maxDragonflyNodes + 1}, "at most 1056"},
		{Spec{Kind: "dragonfly-val", Nodes: 2000}, "at most 1056"},
		{Spec{Kind: "dragonfly", Nodes: maxDragonflyNodes}, ""},
		{Spec{Kind: "pair", Nodes: 2}, ""},
		{Spec{Kind: "star", Nodes: 1}, ""},
		{Spec{Kind: "chain", Nodes: 9, PerSwitch: 4}, ""},
		{Spec{Kind: "tree", Nodes: 9, Radix: 2}, ""},
		{Spec{Kind: "torus2d", Nodes: 16}, ""},
		{Spec{Kind: "torus3d", Nodes: 27}, ""},
		{Spec{Kind: "fattree", Nodes: 16}, ""},
		{Spec{Kind: "dragonfly", Nodes: 72}, ""},
		{Spec{Kind: "dragonfly-val", Nodes: 73}, ""},
	} {
		err := c.spec.Check()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v rejected: %v", c.spec, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one mentioning %q", c.spec, err, c.want)
		}
	}
	covered := map[string]bool{}
	for _, c := range goldenCases {
		covered[c.spec.Kind] = true
	}
	for _, k := range Kinds {
		if !covered[k] {
			t.Errorf("kind %q has no golden wiring case", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Build accepted a spec Check rejects")
		}
	}()
	build(sim.NewEngine(1), Spec{Kind: "dragonfly", Nodes: 2000})
}

// goldenCases pins every kind, at two sizes where the kind has two, to
// the wiring hash its fabric had on 1 and on 3 shards when each shape
// was its own exported builder and core.New placed the switches.
var goldenCases = []struct {
	spec Spec
	want [2]string // wiringHash on 1 and on 3 shards
}{
	{Spec{Kind: "pair", Nodes: 2}, [2]string{"e2a81bcf377e1252", "73ede53717bfd140"}},
	{Spec{Kind: "star", Nodes: 5}, [2]string{"88100f3501ff143c", "0ec4b093b4d152e4"}},
	{Spec{Kind: "star", Nodes: 9}, [2]string{"abf84210a7491778", "c5ed77dcc0a75594"}},
	{Spec{Kind: "chain", Nodes: 6, PerSwitch: 2}, [2]string{"680fd0ea7d134d5d", "4d59771acdca0b78"}},
	{Spec{Kind: "chain", Nodes: 13, PerSwitch: 4}, [2]string{"df89629d2fa3d5f4", "8c6382c2b12ce8a3"}},
	{Spec{Kind: "tree", Nodes: 10, Radix: 3}, [2]string{"5700067e19738a45", "6286a6583b8c932a"}},
	{Spec{Kind: "tree", Nodes: 16, Radix: 4}, [2]string{"0a018c4059f9ec0c", "4621be8db4fccedf"}},
	{Spec{Kind: "torus2d", Nodes: 12}, [2]string{"749419b3f6d26ce9", "509365b44a8e93a7"}},
	{Spec{Kind: "torus2d", Nodes: 16}, [2]string{"444b9b2f7830c0ed", "54f4caa797565ca2"}},
	{Spec{Kind: "torus3d", Nodes: 8}, [2]string{"5187d8dad13bcde9", "8545f6de4b87b4b4"}},
	{Spec{Kind: "torus3d", Nodes: 24}, [2]string{"d8942af5260308fd", "a3e395c134264695"}},
	{Spec{Kind: "fattree", Nodes: 10}, [2]string{"5af2afa8c01229a0", "1e62c1a64fc11218"}},
	{Spec{Kind: "fattree", Nodes: 16}, [2]string{"936f3c3286fd2843", "938a05ea9643d114"}},
	{Spec{Kind: "dragonfly", Nodes: 16}, [2]string{"65961d5319a869a4", "5e20ee339039e697"}},
	{Spec{Kind: "dragonfly", Nodes: 80}, [2]string{"93455479d9c198b9", "756f079c7b9a9dfa"}},
	{Spec{Kind: "dragonfly-val", Nodes: 16}, [2]string{"59215d1058c3df52", "43bbe322f4d2db95"}},
	{Spec{Kind: "dragonfly-val", Nodes: 80}, [2]string{"4a70f82f6af45ea3", "062d6d70d1b93ad8"}},
}

// TestBuildWiringGolden checks that every fabric is wired link for link
// as before: the same links created in the same order under the same
// names (a link's name seeds its fault RNG; creation order orders
// same-instant messages), on the same shards, with the same ports and
// forwarding tables.
func TestBuildWiringGolden(t *testing.T) {
	for _, c := range goldenCases {
		for i, shards := range []int{1, 3} {
			shards = min(shards, c.spec.Nodes)
			g := sim.NewGroup(1, shards)
			place := func(node int) *sim.Engine { return g.Shard(node * shards / c.spec.Nodes) }
			if got := wiringHash(Build(c.spec, place, lcfg(), scfg())); got != c.want[i] {
				t.Errorf("%+v on %d shards: wiring hash %s, want %s", c.spec, shards, got, c.want[i])
			}
		}
	}
}

// wiringHash digests a built fabric in creation order: every link's
// name and the shards of its sender and receiver halves, each node's
// host links, and per switch its shard, port attachments and the full
// forwarding function (output port and departure layer for every
// destination, input port and arrival layer).
func wiringHash(n *Network) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %d\n", n.Kind(), n.NumNodes())
	for _, l := range n.Links() {
		snd, rcv := l.Ends()
		fmt.Fprintf(h, "L %s %d %d\n", l.Name(), snd.Shard(), rcv.Shard())
	}
	for i := 0; i < n.NumNodes(); i++ {
		id := addrspace.NodeID(i)
		fmt.Fprintf(h, "N %d %s %s\n", i, n.NodeEgress(id).Name(), n.NodeIngress(id).Name())
	}
	for i := range n.nodeSw {
		fmt.Fprintf(h, "H %d %d %d\n", i, n.nodeSw[i], n.nodePort[i])
	}
	for s, sw := range n.Switches {
		fmt.Fprintf(h, "S %s %d %d\n", sw.Name(), sw.Engine().Shard(), sw.NumPorts())
		for p := 0; p < sw.NumPorts(); p++ {
			pp := portPeer{node: -1, sw: -1, port: -1}
			if s < len(n.peers) && p < len(n.peers[s]) {
				pp = n.peers[s][p]
			}
			fmt.Fprintf(h, "P %d %d %d %d\n", p, pp.node, pp.sw, pp.port)
		}
		for d := 0; d < n.NumNodes(); d++ {
			writeHops(h, n, s, addrspace.NodeID(d))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeHops records switch s's forwarding decision for dst from every
// input port (and host injection) at every escape layer.
func writeHops(w io.Writer, n *Network, s int, dst addrspace.NodeID) {
	sw := n.Switches[s]
	for in := -1; in < sw.NumPorts(); in++ {
		for layer := uint8(0); layer < packet.NumLayers; layer++ {
			port, out, ok := sw.NextHop(dst, in, layer)
			fmt.Fprintf(w, "R %d %d %d %d %d %v\n", dst, in, layer, port, out, ok)
		}
	}
}
