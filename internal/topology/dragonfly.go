package topology

// Dragonfly (Kim, Dally, Scott, Abts ISCA'08) in the a=4,h=2 class:
// groups of a routers with p hosts each, full local all-to-all inside a
// group, h global channels per router, and one global trunk per group
// pair (channel c of group G meets channel g-2-c of group (G+c+1) mod
// g). Minimal routing is local-global-local; the Valiant variant
// detours every packet through a destination-hashed intermediate group
// (local-global-local-global-local), which is what makes adversarial
// permutations survivable. Every global hop bumps the packet one VC
// escape layer (LayerInc), so channel dependencies always climb:
// minimal traffic uses layers {0,1}, Valiant {0,1,2} — acyclic by
// construction and proven so by CheckDeadlockFree.

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/switchfab"
)

// maxDragonflyNodes is the largest dragonfly: the a=8,h=4 class at its
// full 33 groups of 32 hosts.
const maxDragonflyNodes = (8*4 + 1) * 8 * 4

// DragonflyShape solves the class parameters for nnodes hosts: the
// a=4,h=2 class (p=2 hosts per router, 8 per group, up to 9 groups)
// up to 72 nodes, then the doubled a=8,h=4 class (32 per group, up to
// 33 groups) to maxDragonflyNodes. At least two groups are always built
// so global channels exist.
func DragonflyShape(nnodes int) (p, a, h, g int) {
	if nnodes < 1 || nnodes > maxDragonflyNodes {
		panic(fmt.Sprintf("topology: dragonfly supports 1 to %d nodes, not %d", maxDragonflyNodes, nnodes))
	}
	p, a, h = 2, 4, 2
	if nnodes > (a*h+1)*a*p {
		p, a, h = 4, 8, 4
	}
	g = (nnodes + a*p - 1) / (a * p)
	if g < 2 {
		g = 2
	}
	return p, a, h, g
}

// dragonflyInterGroup picks the Valiant intermediate group for
// destination t: a multiplicative hash of t offset into [1, g-1] past
// the home group, so it is deterministic, destination-indexed (dense
// tables stay valid), and never the destination group itself.
func dragonflyInterGroup(t, gt, g int) int {
	off := 1 + int((uint64(t)*2654435761)%uint64(g-1))
	return (gt + off) % g
}

// dragonfly connects nnodes hosts as a dragonfly; valiant selects the
// non-minimal two-phase routing. Routers are numbered group-major
// (router r of group G is switch G*a+r), each placed with its first
// host.
func (b *builder) dragonfly(nnodes int, valiant bool) {
	p, ra, h, g := DragonflyShape(nnodes)
	nsw := g * ra
	for s := 0; s < nsw; s++ {
		b.addSwitch(min(s*p, nnodes-1), fmt.Sprintf("df.g%d.r%d", s/ra, s%ra))
	}
	for i := 0; i < nnodes; i++ {
		b.attachHost(i, i/p) // global router index (group-major host numbering)
	}

	// Local all-to-all inside each group.
	localPort := make([][]int, nsw) // [router][peer r in group]
	for s := range localPort {
		localPort[s] = make([]int, ra)
		for r := range localPort[s] {
			localPort[s][r] = -1
		}
	}
	for G := 0; G < g; G++ {
		for r1 := 0; r1 < ra; r1++ {
			for r2 := r1 + 1; r2 < ra; r2++ {
				p1, p2 := b.addTrunk(G*ra+r1, G*ra+r2, "")
				localPort[G*ra+r1][r2] = p1
				localPort[G*ra+r2][r1] = p2
			}
		}
	}

	// Global trunks: channel c of group G (owned by router c/h) meets
	// channel g-2-c of group (G+c+1) mod g; one trunk per group pair.
	globalPort := make([][]int, nsw) // [router owning channel][target group]
	for s := range globalPort {
		globalPort[s] = make([]int, g)
		for G := range globalPort[s] {
			globalPort[s][G] = -1
		}
	}
	for G := 0; G < g; G++ {
		for c := 0; c < g-1; c++ {
			H := (G + c + 1) % g
			if G > H {
				continue // the lower-numbered group built this trunk
			}
			cPeer := g - 2 - c
			p1, p2 := b.addTrunk(G*ra+c/h, H*ra+cPeer/h, "")
			globalPort[G*ra+c/h][H] = p1
			globalPort[H*ra+cPeer/h][G] = p2
		}
	}

	// Destination-indexed routing tables. towardGroup computes the next
	// hop from router (G, r) heading for remote group Gt: the global
	// port if this router owns the channel, else the local hop to the
	// owning router.
	towardGroup := func(G, r, Gt int) (port int, act switchfab.LayerAction) {
		c := (Gt - G - 1 + g) % g
		ro := c / h
		if r == ro {
			return globalPort[G*ra+r][Gt], switchfab.LayerInc
		}
		return localPort[G*ra+r][ro], switchfab.LayerKeep
	}
	for t := 0; t < nnodes; t++ {
		dst := addrspace.NodeID(t)
		Gt, rt := t/(ra*p), t/p%ra
		for G := 0; G < g; G++ {
			for r := 0; r < ra; r++ {
				var port int
				act := switchfab.LayerKeep
				switch {
				case G == Gt && r == rt:
					port, act = b.nodePort[t], switchfab.LayerEject
				case G == Gt:
					port = localPort[G*ra+r][rt]
				case valiant && G != dragonflyInterGroup(t, Gt, g):
					// Phase 1: detour toward the intermediate group (a
					// no-op once inside it — the case above picks phase 2).
					port, act = towardGroup(G, r, dragonflyInterGroup(t, Gt, g))
				default:
					port, act = towardGroup(G, r, Gt)
				}
				b.Switches[G*ra+r].SetRouteAction(dst, port, act)
			}
		}
	}
}
