// Package msg provides two message-passing layers over the Telegraphos
// cluster, matching the comparison the paper's introduction draws:
//
//   - System: traditional OS-mediated messaging (PVM/sockets-style) —
//     every send and receive traps into the kernel, copies the data, and
//     delivery raises an interrupt (§1: "message passing systems like PVM
//     and P4 ... require the intervention of the operating system for
//     each message transfer");
//   - Channel: user-level messaging built on Telegraphos remote writes —
//     the sender stores payload words straight into a ring buffer in the
//     receiver's memory and bumps a tail pointer; no OS anywhere on the
//     data path.
package msg

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// System is the OS-mediated messaging layer. All per-node state —
// mailboxes, reply-port counters, kernel daemons — lives on that node's
// own shard engine, so the layer works unchanged on sharded clusters.
type System struct {
	c           *core.Cluster
	boxes       []map[uint64]*sim.Queue[[]uint64] // per node: port -> mailbox
	nextReply   []uint64                          // per node: RPC reply-port counter
	nextBarrier uint64
}

// replyPortBase keeps RPC reply ports out of the user port space.
const replyPortBase = uint64(1) << 32

// NewSystem installs OS-mediated messaging on every node of c.
func NewSystem(c *core.Cluster) *System {
	s := &System{
		c:         c,
		boxes:     make([]map[uint64]*sim.Queue[[]uint64], c.N()),
		nextReply: make([]uint64, c.N()),
	}
	for i := range s.boxes {
		s.boxes[i] = make(map[uint64]*sim.Queue[[]uint64])
	}
	for _, n := range c.Nodes {
		n := n
		n.HIB.SetMsgSink(func(pkt *packet.Packet) {
			// Hardware delivered the packet; the kernel's interrupt path
			// copies it into the destination mailbox.
			data := append([]uint64(nil), pkt.Data...)
			port := pkt.ReqID
			n.Eng.SpawnDaemon(fmt.Sprintf("%v.msgintr", n.ID), func(kp *sim.Proc) {
				t := n.OS.Timing()
				kp.Sleep(t.Interrupt)
				n.OS.CopyWords(kp, len(data))
				s.box(n.ID, port).Put(kp, data)
			})
		})
	}
	return s
}

// box returns (creating on first use) node's mailbox for port. It must
// only be called from node's own shard context.
func (s *System) box(node addrspace.NodeID, port uint64) *sim.Queue[[]uint64] {
	q, ok := s.boxes[node][port]
	if !ok {
		q = sim.NewQueue[[]uint64](s.c.EngineOf(int(node)))
		s.boxes[node][port] = q
	}
	return q
}

// Send transmits data to (dst, port) with full OS mediation: a trap,
// protocol-stack overhead, a kernel copy, then the wire.
func (s *System) Send(ctx *cpu.Ctx, dst addrspace.NodeID, port uint64, data []uint64) {
	s.SendP(ctx.P, ctx.CPU.Node(), dst, port, data)
}

// SendP is Send for kernel/daemon processes.
func (s *System) SendP(p *sim.Proc, src, dst addrspace.NodeID, port uint64, data []uint64) {
	node := s.c.Nodes[src]
	t := node.OS.Timing()
	node.OS.Trap(p)
	p.Sleep(t.SoftMsgOverhead)
	node.OS.CopyWords(p, len(data))
	pkt := &packet.Packet{
		Type:  packet.MsgData,
		Src:   src,
		Dst:   dst,
		ReqID: port,
		Len:   uint32(len(data)),
		Data:  append([]uint64(nil), data...),
	}
	node.HIB.Post(pkt)
}

// Recv blocks until a message arrives at (the caller's node, port); the
// receive path pays a trap and the user-space copy.
func (s *System) Recv(ctx *cpu.Ctx, port uint64) []uint64 {
	return s.RecvP(ctx.P, ctx.CPU.Node(), port)
}

// RecvP is Recv for kernel/daemon processes.
func (s *System) RecvP(p *sim.Proc, node addrspace.NodeID, port uint64) []uint64 {
	n := s.c.Nodes[node]
	n.OS.Trap(p)
	data := s.box(node, port).Get(p)
	n.OS.CopyWords(p, len(data))
	return data
}

// Call is a simple RPC: it sends req to (dst, port) and blocks for the
// reply. The request is prefixed with [replyPort, srcNode]; servers built
// with Serve strip the prefix and route the reply automatically.
func (s *System) Call(p *sim.Proc, src, dst addrspace.NodeID, port uint64, req []uint64) []uint64 {
	s.nextReply[src]++
	replyPort := replyPortBase + s.nextReply[src] // replies land in src's own port space
	framed := append([]uint64{replyPort, uint64(src)}, req...)
	s.SendP(p, src, dst, port, framed)
	return s.RecvP(p, src, replyPort)
}

// Serve starts a server daemon on node that handles each request to port
// in a fresh process (so slow handlers do not block the port) and sends
// the handler's result back to the caller.
func (s *System) Serve(node addrspace.NodeID, port uint64, handler func(p *sim.Proc, src addrspace.NodeID, req []uint64) []uint64) {
	eng := s.c.EngineOf(int(node))
	eng.SpawnDaemon(fmt.Sprintf("%v.server.%d", node, port), func(p *sim.Proc) {
		for {
			framed := s.RecvP(p, node, port)
			if len(framed) < 2 {
				continue
			}
			replyPort := framed[0]
			src := addrspace.NodeID(framed[1])
			req := framed[2:]
			eng.SpawnDaemon(fmt.Sprintf("%v.handler.%d", node, port), func(hp *sim.Proc) {
				resp := handler(hp, src, req)
				s.SendP(hp, node, src, replyPort, resp)
			})
		}
	})
}
