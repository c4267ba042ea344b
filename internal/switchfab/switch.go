// Package switchfab models the Telegraphos switch: a lossless,
// back-pressured packet switch with deterministic table routing and
// in-order delivery per source-destination pair.
//
// The real switch [16, 17] is a pipelined shared-buffer VLSI design with
// VC-level flow control. This model reproduces its external contract —
// the contract the coherence protocol of §2.3 depends on — rather than
// its internal pipeline:
//
//   - lossless: back-pressure via link credits, never drops;
//   - deterministic routing: one fixed path per destination;
//   - in-order: packets from one input to one output stay ordered;
//   - deadlock-free: requests and replies ride separate virtual channels,
//     and cyclic topologies (torus, dragonfly) escape residual channel
//     dependencies by rewriting the packet's VC layer on dateline and
//     global hops (SetRouteAction; proven acyclic by
//     topology.CheckDeadlockFree).
//
// Forwarding a packet costs a fixed per-hop routing delay plus the output
// link's serialization time.
package switchfab

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// Config sets switch parameters.
type Config struct {
	// RouteDelay is the per-packet route-lookup + crossbar traversal time.
	RouteDelay sim.Time
}

// DefaultConfig reflects the Telegraphos I FPGA switch: ~100 ns per hop.
func DefaultConfig() Config { return Config{RouteDelay: 100 * sim.Nanosecond} }

// Switch is an input-queued packet switch. Attach port links with
// AttachPort, install a routing table with SetRoute, then Start it.
type Switch struct {
	name string
	eng  *sim.Engine
	cfg  Config

	in  []*link.Link // per port: traffic arriving into the switch
	out []*link.Link // per port: traffic leaving the switch
	// routes is a dense output-port table indexed by destination node
	// (-1 = no route): route lookup runs twice per forwarded packet, so it
	// is an array walk, not a hash. actions is the parallel per-destination
	// layer rewrite (LayerKeep unless the topology builder says otherwise).
	routes  []int16
	actions []LayerAction
	// portDim groups ports into routing dimensions (-1 = ungrouped). A
	// packet switching between two *grouped* dimensions re-enters the new
	// dimension's ring at layer 0; within a dimension, and on ungrouped
	// ports, its layer is sticky.
	portDim []int8
	started bool

	// coll is the in-network collective engine (nil unless a collective
	// group or combining was enabled); see collective.go.
	coll *collState

	forwarded int64
	misroutes int64
}

// New returns a switch with no ports.
func New(eng *sim.Engine, name string, cfg Config) *Switch {
	return &Switch{name: name, eng: eng, cfg: cfg}
}

// Name returns the switch's diagnostic name.
func (s *Switch) Name() string { return s.name }

// Engine returns the engine the switch's pipelines run on (topology
// builders attach cross-engine links against it).
func (s *Switch) Engine() *sim.Engine { return s.eng }

// NumPorts reports the number of attached ports.
func (s *Switch) NumPorts() int { return len(s.in) }

// AttachPort registers a bidirectional port: packets arrive on in and
// depart on out. It returns the port index. Ports must be attached before
// Start.
func (s *Switch) AttachPort(in, out *link.Link) int {
	if s.started {
		panic("switchfab: AttachPort after Start")
	}
	s.in = append(s.in, in)
	s.out = append(s.out, out)
	return len(s.in) - 1
}

// LayerAction selects how a switch rewrites a packet's VC escape layer
// when forwarding toward a destination (see packet.NumLayers and
// DESIGN.md §17).
type LayerAction uint8

// The layer rewrites the generated topologies use.
const (
	// LayerKeep leaves the (possibly dimension-reset) layer unchanged.
	LayerKeep LayerAction = iota
	// LayerCross marks a torus dateline hop: the packet escapes to
	// layer 1 for the rest of this ring.
	LayerCross
	// LayerInc marks a dragonfly global hop: the packet moves one layer
	// up (saturating), so each global channel ordering is acyclic.
	LayerInc
	// LayerEject marks a delivery hop to a host port: the packet returns
	// to the injection layer so the host sees the classic two channels.
	LayerEject
)

// SetRoute directs traffic for node dst out of port.
func (s *Switch) SetRoute(dst addrspace.NodeID, port int) {
	s.SetRouteAction(dst, port, LayerKeep)
}

// SetRouteAction directs traffic for node dst out of port and installs
// the layer rewrite applied on that hop.
func (s *Switch) SetRouteAction(dst addrspace.NodeID, port int, act LayerAction) {
	if port < 0 || port >= len(s.in) {
		panic(fmt.Sprintf("switchfab: route to %v through invalid port %d", dst, port))
	}
	for len(s.routes) <= int(dst) {
		s.routes = append(s.routes, -1)
		s.actions = append(s.actions, LayerKeep)
	}
	s.routes[dst] = int16(port)
	s.actions[dst] = act
}

// SetPortDim assigns port to routing-dimension group dim (>= 0).
// Builders of dimension-ordered topologies (torus) call it so a packet
// turning into a new dimension restarts that dimension's ring at
// layer 0.
func (s *Switch) SetPortDim(port, dim int) {
	if port < 0 || port >= len(s.in) {
		panic(fmt.Sprintf("switchfab: SetPortDim on invalid port %d", port))
	}
	for len(s.portDim) < len(s.in) {
		s.portDim = append(s.portDim, -1)
	}
	s.portDim[port] = int8(dim)
}

// dimOf reports the dimension group of port (-1 = ungrouped).
func (s *Switch) dimOf(port int) int8 {
	if port < 0 || port >= len(s.portDim) {
		return -1
	}
	return s.portDim[port]
}

// nextLayer computes the escape layer a packet leaves on: the sticky
// arrival layer (reset when turning between two grouped dimensions),
// rewritten by the destination's LayerAction. It is the single routing
// truth shared by the forwarding pipeline and NextHop (which
// topology.CheckDeadlockFree walks to build the channel-dependency
// graph).
func (s *Switch) nextLayer(inPort, outPort int, layer uint8, dst addrspace.NodeID) uint8 {
	eff := layer
	if in := s.dimOf(inPort); in >= 0 {
		if out := s.dimOf(outPort); out >= 0 && out != in {
			eff = 0
		}
	}
	switch s.actions[dst] {
	case LayerCross:
		eff = 1
	case LayerInc:
		if eff < packet.NumLayers-1 {
			eff++
		}
	case LayerEject:
		eff = 0
	}
	return eff
}

// NextHop reports the forwarding decision for a packet to dst arriving
// on inPort at the given escape layer: the output port and the
// rewritten layer the packet departs with. inPort -1 means host
// injection at this switch.
func (s *Switch) NextHop(dst addrspace.NodeID, inPort int, layer uint8) (port int, outLayer uint8, ok bool) {
	p, ok := s.Route(dst)
	if !ok {
		return 0, 0, false
	}
	return p, s.nextLayer(inPort, p, layer, dst), true
}

// Route reports the output port for dst and whether a route exists.
func (s *Switch) Route(dst addrspace.NodeID) (int, bool) {
	if int(dst) >= len(s.routes) || s.routes[dst] < 0 {
		return 0, false
	}
	return int(s.routes[dst]), true
}

// internalBufPackets is the per-input-VC routed-packet buffer between the
// routing stage and the output stage; when it fills, back-pressure
// propagates to the input link.
const internalBufPackets = 4

// portPipe is the event-driven forwarding pipeline of one (input port,
// virtual channel) pair: a route stage and an output (xmit) stage joined
// by a small bounded buffer, exactly the two-stage structure the old
// coroutine pair modeled, but driven by link arrival notifications and
// wire-clear callbacks instead of parked processes. Packets on one input
// VC traverse both stages strictly in arrival order, which preserves
// per-source-destination ordering, and the route stage overlaps with the
// previous packet's transmission, so RouteDelay adds latency without
// costing throughput — as in the real pipelined switch [16].
type portPipe struct {
	sw   *Switch
	in   *link.Link
	port int // input port index (for dimension-aware layer rewrites)
	vc   packet.VC

	routed  []*packet.Packet // route->xmit buffer, cap internalBufPackets
	held    *packet.Packet   // routed but stalled on a full buffer
	current *packet.Packet   // packet in the route stage
	sending bool             // xmit stage waiting for its wire-clear

	routeDoneFn func() // prebound stage-completion callbacks
	clearFn     func()
	intakeFn    func()
}

// intake is the route-stage entry: it runs on every input-link arrival
// and whenever the stage frees up, consuming the next packet if the
// stage is idle and not stalled behind a full buffer.
func (pp *portPipe) intake() {
	for pp.current == nil && pp.held == nil {
		pkt, ok := pp.in.TryRecv(pp.vc)
		if !ok {
			return
		}
		if cs := pp.sw.coll; cs != nil && cs.intercept(pkt) {
			// Absorbed by the collective engine (combined, de-combined,
			// or replicated); it never enters the forwarding pipeline.
			continue
		}
		if _, ok := pp.sw.Route(pkt.Dst); !ok {
			// A misroute is a fabric configuration bug; count it and drop
			// so the failure is visible in telemetry rather than a hang.
			pp.sw.misroutes++
			continue
		}
		pp.current = pkt
		pp.sw.eng.Schedule(pp.sw.cfg.RouteDelay, pp.routeDoneFn) //tgvet:allow eventdrop(route-done always fires; pp.current stays occupied until it does)
		return
	}
}

// routeDone moves the routed packet into the buffer (or parks it as held
// when the buffer is full — the back-pressure point) and kicks both
// stages.
func (pp *portPipe) routeDone() {
	pkt := pp.current
	pp.current = nil
	if len(pp.routed) < internalBufPackets {
		pp.routed = append(pp.routed, pkt)
		pp.xmit()
		pp.intake()
	} else {
		pp.held = pkt
		pp.xmit()
	}
}

// xmit launches the oldest buffered packet on its output link; the next
// launch happens from the wire-clear callback, so one packet occupies the
// output stage at a time.
func (pp *portPipe) xmit() {
	if pp.sending || len(pp.routed) == 0 {
		return
	}
	pkt := pp.routed[0]
	copy(pp.routed, pp.routed[1:])
	pp.routed[len(pp.routed)-1] = nil
	pp.routed = pp.routed[:len(pp.routed)-1]
	if pp.held != nil {
		pp.routed = append(pp.routed, pp.held)
		pp.held = nil
		pp.intake()
	}
	pp.sending = true
	port := int(pp.sw.routes[pkt.Dst])
	pkt.Layer = pp.sw.nextLayer(pp.port, port, pkt.Layer, pkt.Dst)
	pp.sw.out[port].SendEv(pkt, pp.clearFn)
}

// Start wires up the forwarding pipelines: per input port and virtual
// channel, a portPipe driven by arrival notifications.
func (s *Switch) Start() {
	if s.started {
		return
	}
	s.started = true
	for port, in := range s.in {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			pp := &portPipe{sw: s, in: in, port: port, vc: vc}
			pp.routeDoneFn = pp.routeDone
			pp.intakeFn = pp.intake
			pp.clearFn = func() {
				s.forwarded++
				pp.sending = false
				pp.xmit()
			}
			in.SetNotify(vc, pp.intakeFn)
		}
	}
}

// Forwarded reports the total packets forwarded.
func (s *Switch) Forwarded() int64 { return s.forwarded }

// FaultStats aggregates the fault-injection and ARQ-recovery counters of
// every link attached to this switch (zero when no fault plan is active).
func (s *Switch) FaultStats() link.FaultStats {
	var fs link.FaultStats
	for _, l := range s.in {
		fs.Add(l.FaultStats())
	}
	for _, l := range s.out {
		fs.Add(l.FaultStats())
	}
	return fs
}

// UnackedFrames reports ARQ frames still in flight on the switch's
// attached links; a quiesced fabric must report zero.
func (s *Switch) UnackedFrames() int {
	n := 0
	for _, l := range s.in {
		n += l.Unacked()
	}
	for _, l := range s.out {
		n += l.Unacked()
	}
	return n
}

// Misroutes reports packets dropped for lack of a route (should be zero in
// any correctly built topology).
func (s *Switch) Misroutes() int64 { return s.misroutes }
