package hib

import (
	"reflect"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
)

// remoteOpAllocs is the allocation count of one warmed remote load or
// fetch&inc on a fault-free pair: none. The board reuses the future the
// requester blocks on, and its waiter array; request and reply packets
// come from the boards' pools, and every event on the datapath has a
// prebound handler. Raising it needs a reason.
const remoteOpAllocs = 0

// TestRemoteOpAllocs pins the allocations of a warmed remote Load and
// FetchAndInc, measured inside one long-lived requester process.
func TestRemoteOpAllocs(t *testing.T) {
	r := newRig(t, nil)
	const key = 0x51
	id, err := r.h[0].AllocContext(key)
	if err != nil {
		t.Fatal(err)
	}
	g := addrspace.NewGAddr(1, 0x200)
	load := func(p *sim.Proc) { r.h[0].CPURead(p, addrspace.RemotePA(1, 0x80)) }
	inc := func(p *sim.Proc) { launchSequence(p, r.h[0], id, key, packet.FetchAndInc, g, 0, 0) }
	avg := map[string]float64{}
	r.eng.Spawn("req", func(p *sim.Proc) {
		for name, op := range map[string]func(*sim.Proc){"load": load, "fetch&inc": inc} {
			for i := 0; i < 8; i++ { // warm the pools, queues and FIFOs
				op(p)
			}
			avg[name] = testing.AllocsPerRun(100, func() { op(p) })
		}
	})
	r.run(t)
	for name, a := range avg {
		if a != remoteOpAllocs {
			t.Errorf("warmed remote %s: %.2f allocs/op, want %d", name, a, remoteOpAllocs)
		}
	}
	if got := r.mem[1].ReadWord(0x200); got != 8+101 {
		t.Fatalf("counter = %d after 109 fetch&incs", got)
	}
}

// coherenceRxAllocs is the allocation count the board adds for each
// received packet it offers to an installed coherence protocol, whether
// the protocol claims the packet or declines it: none, because the hook
// runs on the receive pipeline's events. A process per packet would add
// 14. Lower it when a change lowers it; raising it needs a reason.
const coherenceRxAllocs = 0

// claimReads is a coherence layer that claims every ReadReq when claim
// is set, holds it 1 ns on a prebound event and then hands it to the
// default handler, and declines every other packet.
type claimReads struct {
	h                 *HIB
	claim             bool
	held              []applyItem
	fire              func()
	claimed, declined int
}

func newClaimReads(h *HIB, claim bool) *claimReads {
	c := &claimReads{h: h, claim: claim}
	c.fire = func() {
		it := popItem(&c.held)
		c.h.handle(it.pkt, it.done)
	}
	return c
}

func (c *claimReads) LocalSharedWrite(*sim.Proc, uint64, uint64) bool { return false }

func (c *claimReads) LocalSharedRead(*sim.Proc, uint64) (uint64, bool) { return 0, false }

func (c *claimReads) IncomingPacket(pkt *packet.Packet, done func()) bool {
	if !c.claim || pkt.Type != packet.ReadReq {
		c.declined++
		return false
	}
	c.claimed++
	c.held = append(c.held, applyItem{pkt: pkt, done: done})
	c.h.eng.Schedule(1, c.fire)
	return true
}

// TestCoherenceRxAllocs pins what an installed coherence protocol costs
// the receive path. A warmed remote load sends a ReadReq and gets a
// ReadReply back, and each board offers the packet it receives to its
// protocol. Whether the home's protocol claims the ReadReq or declines
// it, the load must cost remoteOpAllocs plus coherenceRxAllocs per
// offered packet, and give the right word.
func TestCoherenceRxAllocs(t *testing.T) {
	for _, claim := range []bool{false, true} {
		r := newRig(t, nil)
		req, home := newClaimReads(r.h[0], false), newClaimReads(r.h[1], claim)
		r.h[0].SetCoherence(req)
		r.h[1].SetCoherence(home)
		r.mem[1].WriteWord(0x80, 41)
		var avg float64
		var v uint64
		r.eng.Spawn("req", func(p *sim.Proc) {
			load := func() { v = r.h[0].CPURead(p, addrspace.RemotePA(1, 0x80)) }
			for i := 0; i < 8; i++ { // warm the pools, queues and FIFOs
				load()
			}
			avg = testing.AllocsPerRun(100, load)
		})
		r.run(t)
		if want := float64(remoteOpAllocs + 2*coherenceRxAllocs); avg != want {
			t.Errorf("claim=%v: warmed remote load %.2f allocs/op, want %v", claim, avg, want)
		}
		if v != 41 {
			t.Errorf("claim=%v: load returned %d, want 41", claim, v)
		}
		// 8 warm-up loads, one AllocsPerRun calibration run and 100
		// measured runs.
		const loads = 109
		if claim && (home.claimed != loads || home.declined != 0) {
			t.Errorf("home claimed %d and declined %d ReadReqs, want %d and 0", home.claimed, home.declined, loads)
		}
		if !claim && home.declined != loads {
			t.Errorf("home declined %d ReadReqs, want %d", home.declined, loads)
		}
		if req.declined != loads {
			t.Errorf("requester declined %d ReadReplies, want %d", req.declined, loads)
		}
	}
}

// TestReadAtomicPacketsRecycled checks where the consumed packets of a
// remote read and a remote fetch&inc end up: the home frees each request
// and the requester each reply, so both boards' pools fill, with
// zeroed packets. That holds on a faulty pair too, whose drops and
// duplicates leave freed packets' pointers in ARQ windows and in flight:
// the ARQ never reads a packet again (link.TestARQNeverReadsDeliveredPacket).
func TestReadAtomicPacketsRecycled(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		r := newRig(t, func(cfg *params.Config) {
			if faulty {
				cfg.Link.Faults = &link.FaultPlan{Seed: 2, DropProb: 0.3, DupProb: 0.3}
			}
		})
		const key = 0x52
		id, err := r.h[0].AllocContext(key)
		if err != nil {
			t.Fatal(err)
		}
		r.mem[1].WriteWord(0x80, 41)
		var v, old uint64
		r.eng.Spawn("req", func(p *sim.Proc) {
			v = r.h[0].CPURead(p, addrspace.RemotePA(1, 0x80))
			old = launchSequence(p, r.h[0], id, key, packet.FetchAndInc, addrspace.NewGAddr(1, 0x80), 0, 0)
		})
		r.run(t)
		if v != 41 || old != 41 || r.mem[1].ReadWord(0x80) != 42 {
			t.Fatalf("faulty=%v: read %d, fetched %d, counter %d", faulty, v, old, r.mem[1].ReadWord(0x80))
		}
		var fs link.FaultStats
		for _, l := range r.net.Links() {
			fs.Add(l.FaultStats())
		}
		if faulty && (fs.Retransmits == 0 || fs.Deduped == 0) {
			t.Fatalf("faulty link: no retransmission or duplicate to recover from: %+v", fs)
		}
		// A reply is taken from the home's pool right after its request
		// is freed, so the home keeps one packet and the requester gets
		// one back per operation.
		home, req := len(r.h[1].pool.free), len(r.h[0].pool.free)
		if home == 0 || req == 0 {
			t.Errorf("faulty=%v: pool home %d, requester %d; want both non-empty", faulty, home, req)
		}
		for _, h := range r.h {
			for _, pkt := range h.pool.free {
				if !reflect.DeepEqual(*pkt, packet.Packet{}) {
					t.Errorf("node %v: recycled packet not zeroed: %+v", h.node, *pkt)
				}
			}
		}
	}
}
