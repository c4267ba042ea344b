package topology

// k-ary fat-tree (folded Clos) with deterministic up*/down* routing: k
// pods of k/2 edge and k/2 aggregation switches, (k/2)^2 core switches,
// k/2 hosts per edge switch — k^3/4 hosts at full population. Routes
// climb toward a destination-hashed core (up ports spread by dst, so
// the reverse path of a reply is load-balanced the same way) and then
// descend; up*/down* admits no up-after-down turn, so the channel
// dependencies are acyclic on layer 0 alone and no dateline escape is
// needed. Partial populations leave the trailing pods host-less but
// fully wired.

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/switchfab"
)

// FatTreeK reports the smallest even arity k whose fat-tree holds
// nnodes hosts (k^3/4 >= nnodes).
func FatTreeK(nnodes int) int {
	if nnodes < 1 {
		panic("topology: fat-tree needs at least one node")
	}
	for k := 2; ; k += 2 {
		if k*k*k/4 >= nnodes {
			return k
		}
	}
}

// fatTree connects nnodes hosts in the smallest k-ary fat-tree that
// holds them, with deterministic up*/down* routing. Switches are numbered
// edges, aggregations, cores; edge and aggregation switches are placed
// with the first host below them, cores with node 0.
func (b *builder) fatTree(nnodes int) {
	k := FatTreeK(nnodes)
	half := k / 2
	perPod := half * half // hosts per pod
	nEdge, nAgg, nCore := k*half, k*half, half*half
	aggBase, coreBase := nEdge, nEdge+nAgg

	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			b.addSwitch(min(p*perPod+e*half, nnodes-1), fmt.Sprintf("ft.e%d.%d", p, e))
		}
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			b.addSwitch(min(p*perPod, nnodes-1), fmt.Sprintf("ft.a%d.%d", p, e))
		}
	}
	for c := 0; c < nCore; c++ {
		b.addSwitch(0, fmt.Sprintf("ft.c%d", c))
	}
	for i := 0; i < nnodes; i++ {
		p, j := i/perPod, i%perPod
		b.attachHost(i, p*half+j/half)
	}

	// Edge <-> aggregation inside each pod, then aggregation <-> core:
	// agg a of every pod reaches cores a*half .. a*half+half-1.
	edgeUp := make([][]int, nEdge)   // [edge][agg] port on edge toward agg a
	aggDown := make([][]int, nAgg)   // [agg][edge] port on agg toward edge e
	aggUp := make([][]int, nAgg)     // [agg][o] port on agg toward core a*half+o
	coreDown := make([][]int, nCore) // [core][pod] port on core toward pod p
	for i := range edgeUp {
		edgeUp[i] = make([]int, half)
	}
	for i := range aggDown {
		aggDown[i] = make([]int, half)
		aggUp[i] = make([]int, half)
	}
	for i := range coreDown {
		coreDown[i] = make([]int, k)
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for ag := 0; ag < half; ag++ {
				pe, pa := b.addTrunk(p*half+e, aggBase+p*half+ag, "")
				edgeUp[p*half+e][ag] = pe
				aggDown[p*half+ag][e] = pa
			}
		}
		for ag := 0; ag < half; ag++ {
			for o := 0; o < half; o++ {
				pa, pc := b.addTrunk(aggBase+p*half+ag, coreBase+ag*half+o, "")
				aggUp[p*half+ag][o] = pa
				coreDown[ag*half+o][p] = pc
			}
		}
	}

	// Deterministic up*/down* routing, up ports spread by destination.
	for t := 0; t < nnodes; t++ {
		dst := addrspace.NodeID(t)
		tp, tj := t/perPod, t%perPod
		te := tp*half + tj/half
		ta := t % half          // agg index every pod uses to reach t
		to := (t / half) % half // core offset behind that agg
		for p := 0; p < k; p++ {
			for e := 0; e < half; e++ {
				edge := p*half + e
				if edge == te {
					b.Switches[edge].SetRouteAction(dst, b.nodePort[t], switchfab.LayerEject)
				} else {
					b.Switches[edge].SetRoute(dst, edgeUp[edge][ta])
				}
			}
			for ag := 0; ag < half; ag++ {
				agg := p*half + ag
				if p == tp {
					b.Switches[aggBase+agg].SetRoute(dst, aggDown[agg][tj/half])
				} else {
					b.Switches[aggBase+agg].SetRoute(dst, aggUp[agg][to])
				}
			}
		}
		// Only core ta*half+to carries traffic to t, but every core
		// knows the down pod so stray packets cannot be misrouted.
		for c := 0; c < nCore; c++ {
			b.Switches[coreBase+c].SetRoute(dst, coreDown[c][tp])
		}
	}
}
