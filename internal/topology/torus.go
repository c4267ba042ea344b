package topology

// k-ary n-cube torus (2D/3D) with dimension-order routing and
// VC-dateline deadlock avoidance — the direct-network shape APEnet+
// runs (PAPERS.md). One workstation per switch; each dimension is a
// bidirectional ring. Routing corrects the lowest-indexed differing
// coordinate first, taking the shorter ring direction (ties go the
// plus way). Each ring owns a dateline — the wrap edge (k-1 -> 0) for
// the plus direction, (0 -> k-1) for minus — and a packet crossing it
// escapes to VC layer 1 for the rest of that ring; turning into the
// next dimension re-enters at layer 0 (SetPortDim). That is the
// classic Dally/Seitz dateline construction, and CheckDeadlockFree
// proves it acyclic rather than assuming it.

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/switchfab"
)

// TorusDims factors nnodes into ndims near-equal ring sizes (largest
// divisor at or below the ndims-th root first dim by dim). Prime or
// awkward counts degrade gracefully: a 2D torus over a prime N comes
// out [1, N], a plain ring.
func TorusDims(nnodes, ndims int) []int {
	if nnodes < 1 || ndims < 1 {
		panic("topology: TorusDims needs nnodes and ndims >= 1")
	}
	dims := make([]int, 0, ndims)
	left := nnodes
	for d := ndims; d > 1; d-- {
		// Largest divisor of left not exceeding its d-th root.
		root := 1
		for (root+1)*pow(root+1, d-1) <= left {
			root++
		}
		div := 1
		for f := root; f >= 1; f-- {
			if left%f == 0 {
				div = f
				break
			}
		}
		dims = append(dims, div)
		left /= div
	}
	dims = append(dims, left)
	return dims
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// buildTorus connects prod(dims) nodes as a k-ary n-cube torus with
// dimension-order routing, one switch per node placed with its node.
// With datelines false every ring hop keeps its layer, so any ring of
// >= 4 switches has a cyclic channel dependency: that variant exists
// solely as the planted-cycle regression for CheckDeadlockFree and must
// never carry real traffic.
func (b *builder) buildTorus(dims []int, datelines bool) {
	nnodes := 1
	for _, k := range dims {
		nnodes *= k
	}
	stride := make([]int, len(dims))
	s := 1
	for d := range dims {
		stride[d] = s
		s *= dims[d]
	}
	coordOf := func(id, d int) int { return id / stride[d] % dims[d] }

	for i := 0; i < nnodes; i++ {
		b.addSwitch(i, fmt.Sprintf("sw%d", i))
	}
	for i := 0; i < nnodes; i++ {
		b.attachHost(i, i)
	}

	// Ring ports: per dimension with k >= 2, a plus port on every switch
	// (outgoing +1 wire, incoming -1 wire) and, when k >= 3, a minus
	// port. A k=2 ring is one bidirectional trunk serving both
	// directions. Dimensions of width 1 have no ports.
	plusPort := make([][]int, len(dims))  // [dim][node]
	minusPort := make([][]int, len(dims)) // [dim][node]
	for d, k := range dims {
		if k < 2 {
			continue
		}
		plusPort[d] = make([]int, nnodes)
		minusPort[d] = make([]int, nnodes)
		for i := 0; i < nnodes; i++ {
			plusPort[d][i], minusPort[d][i] = -1, -1
		}
		for i := 0; i < nnodes; i++ {
			c := coordOf(i, d)
			if k == 2 && c == 1 {
				continue // the c=0 switch already built this trunk
			}
			j := i + stride[d]
			if c == k-1 {
				j = i - (k-1)*stride[d] // wrap
			}
			pi, pj := b.addTrunk(i, j, fmt.Sprintf(".d%d", d))
			plusPort[d][i] = pi
			if k == 2 {
				plusPort[d][j] = pj
			} else {
				minusPort[d][j] = pj
			}
		}
		for i, sw := range b.Switches {
			sw.SetPortDim(plusPort[d][i], d)
			if minusPort[d][i] >= 0 {
				sw.SetPortDim(minusPort[d][i], d)
			}
		}
	}

	// Dimension-order routing with dateline escape.
	for i := 0; i < nnodes; i++ {
		for t := 0; t < nnodes; t++ {
			port, act := b.nodePort[i], switchfab.LayerEject
			for d, k := range dims {
				c, tc := coordOf(i, d), coordOf(t, d)
				if c == tc {
					continue
				}
				delta := (tc - c + k) % k
				if 2*delta <= k { // shorter (or tied) the plus way
					port, act = plusPort[d][i], switchfab.LayerKeep
					if datelines && c == k-1 {
						act = switchfab.LayerCross // wrap hop k-1 -> 0
					}
				} else {
					port, act = minusPort[d][i], switchfab.LayerKeep
					if datelines && c == 0 {
						act = switchfab.LayerCross // wrap hop 0 -> k-1
					}
				}
				break
			}
			b.Switches[i].SetRouteAction(addrspace.NodeID(t), port, act)
		}
	}
}
