package hib

import (
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/mem"
	"telegraphos/internal/osmodel"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/tchan"
	"telegraphos/internal/topology"
)

// rig is a two-node test rig exposing both HIBs directly.
type rig struct {
	eng *sim.Engine
	net *topology.Network
	h   [2]*HIB
	os  [2]*osmodel.OS
	mem [2]*mem.Memory
}

func newRig(t *testing.T, mutate func(*params.Config)) *rig {
	t.Helper()
	cfg := params.Default(2)
	cfg.Sizing.MemBytes = 1 << 20
	if mutate != nil {
		mutate(&cfg)
	}
	eng := sim.NewEngine(cfg.Seed)
	net := topology.Build(cfg.Fabric(), func(int) *sim.Engine { return eng }, cfg.Link, cfg.Switch)
	r := &rig{eng: eng, net: net}
	for i := 0; i < 2; i++ {
		id := addrspace.NodeID(i)
		r.mem[i] = mem.New(cfg.Sizing.MemBytes, cfg.Sizing.PageSize)
		r.os[i] = osmodel.New(eng, id, cfg.Timing)
		r.h[i] = New(eng, id, net, tchan.New(eng), r.mem[i], r.os[i], cfg)
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCPUWriteRemoteDelivers(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("w", func(p *sim.Proc) {
		r.h[0].CPUWrite(p, addrspace.RemotePA(1, 0x100), 77)
		r.h[0].Fence(p)
	})
	r.run(t)
	if got := r.mem[1].ReadWord(0x100); got != 77 {
		t.Fatalf("remote memory = %d", got)
	}
	if r.h[0].Outstanding() != 0 {
		t.Fatal("outstanding not drained after fence")
	}
}

func TestCPUReadRemote(t *testing.T) {
	r := newRig(t, nil)
	r.mem[1].WriteWord(0x80, 1234)
	var got uint64
	r.eng.Spawn("r", func(p *sim.Proc) {
		got = r.h[0].CPURead(p, addrspace.RemotePA(1, 0x80))
	})
	r.run(t)
	if got != 1234 {
		t.Fatalf("remote read = %d", got)
	}
}

func TestOutstandingCounterTracksWrites(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.h[0].CPUWrite(p, addrspace.RemotePA(1, uint64(0x100+8*i)), uint64(i))
		}
		if r.h[0].Outstanding() == 0 {
			t.Error("writes should be outstanding immediately after issue")
		}
		r.h[0].Fence(p)
		if r.h[0].Outstanding() != 0 {
			t.Error("fence returned with outstanding writes")
		}
	})
	r.run(t)
}

func TestFenceNoOpWhenIdle(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("f", func(p *sim.Proc) {
		start := p.Now()
		r.h[0].Fence(p)
		if p.Now() != start {
			t.Error("idle fence should not block")
		}
	})
	r.run(t)
}

func TestNegativeOutstandingPanics(t *testing.T) {
	r := newRig(t, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative outstanding count")
		}
	}()
	r.h[0].AddOutstanding(-1)
}

func TestContextAllocExhaustion(t *testing.T) {
	r := newRig(t, func(c *params.Config) { c.Sizing.Contexts = 2 })
	if _, err := r.h[0].AllocContext(1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h[0].AllocContext(2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h[0].AllocContext(3); err == nil {
		t.Fatal("third AllocContext should fail with 2 contexts")
	}
	r.h[0].FreeContext(0)
	if id, err := r.h[0].AllocContext(4); err != nil || id != 0 {
		t.Fatalf("freed context not reusable: id=%d err=%v", id, err)
	}
	r.h[0].FreeContext(-1) // out of range: no-op
	r.h[0].FreeContext(99)
}

// launchSequence drives the raw register-level launch of an atomic,
// exactly as the CPU's microsequence does.
func launchSequence(p *sim.Proc, h *HIB, id int, key uint64, op packet.AtomicOp, g addrspace.GAddr, v1, v2 uint64) uint64 {
	h.CPUWrite(p, CtxRegPA(id, CtxRegOpcode), uint64(op))
	h.CPUWrite(p, CtxRegPA(id, CtxRegOperand1), v1)
	h.CPUWrite(p, CtxRegPA(id, CtxRegOperand2), v2)
	pa := g.PAFrom(h.Node()).WithShadow()
	h.CPUWrite(p, pa, ShadowArg(id, 0, key))
	return h.CPURead(p, CtxRegPA(id, CtxRegAtomicGo))
}

func TestRegisterLevelAtomicLaunch(t *testing.T) {
	r := newRig(t, nil)
	const key = 0xBEEF
	id, err := r.h[0].AllocContext(key)
	if err != nil {
		t.Fatal(err)
	}
	g := addrspace.NewGAddr(1, 0x200)
	var old1, old2 uint64
	r.eng.Spawn("a", func(p *sim.Proc) {
		old1 = launchSequence(p, r.h[0], id, key, packet.FetchAndInc, g, 0, 0)
		old2 = launchSequence(p, r.h[0], id, key, packet.FetchAndInc, g, 0, 0)
	})
	r.run(t)
	if old1 != 0 || old2 != 1 {
		t.Fatalf("fetched %d,%d want 0,1", old1, old2)
	}
	if r.mem[1].ReadWord(0x200) != 2 {
		t.Fatalf("counter = %d", r.mem[1].ReadWord(0x200))
	}
}

func TestLaunchWithoutAddressRejected(t *testing.T) {
	r := newRig(t, nil)
	id, _ := r.h[0].AllocContext(1)
	var got uint64
	r.eng.Spawn("a", func(p *sim.Proc) {
		// Trigger with no shadow store: must return LaunchError.
		got = r.h[0].CPURead(p, CtxRegPA(id, CtxRegAtomicGo))
	})
	r.run(t)
	if got != LaunchError {
		t.Fatalf("launch without address returned %#x", got)
	}
	if r.h[0].Counters.Get("launch-rejected") != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestLaunchConsumesAddressArgument(t *testing.T) {
	// A second trigger without a fresh shadow store must fail: the
	// launch consumed the address.
	r := newRig(t, nil)
	const key = 7
	id, _ := r.h[0].AllocContext(key)
	g := addrspace.NewGAddr(1, 0x300)
	var second uint64
	r.eng.Spawn("a", func(p *sim.Proc) {
		launchSequence(p, r.h[0], id, key, packet.FetchAndInc, g, 0, 0)
		second = r.h[0].CPURead(p, CtxRegPA(id, CtxRegAtomicGo))
	})
	r.run(t)
	if second != LaunchError {
		t.Fatalf("stale address reused: %#x", second)
	}
}

func TestContextSurvivesInterruption(t *testing.T) {
	// §2.2.4: "If an application gets interrupted while launching a
	// special operation, the Telegraphos contexts preserve their
	// contents, so that the special operation will be launched when the
	// application is resumed."
	r := newRig(t, nil)
	const key = 5
	id, _ := r.h[0].AllocContext(key)
	g := addrspace.NewGAddr(1, 0x400)
	var old uint64
	r.eng.Spawn("a", func(p *sim.Proc) {
		// First half of the sequence...
		r.h[0].CPUWrite(p, CtxRegPA(id, CtxRegOpcode), uint64(packet.FetchAndStore))
		r.h[0].CPUWrite(p, CtxRegPA(id, CtxRegOperand1), 99)
		pa := g.PAFrom(0).WithShadow()
		r.h[0].CPUWrite(p, pa, ShadowArg(id, 0, key))
		// ... a long "context switch away" ...
		p.Sleep(500 * sim.Microsecond)
		// ... resume and fire.
		old = r.h[0].CPURead(p, CtxRegPA(id, CtxRegAtomicGo))
	})
	r.run(t)
	if old != 0 {
		t.Fatalf("fetch&store old = %d", old)
	}
	if r.mem[1].ReadWord(0x400) != 99 {
		t.Fatal("interrupted launch did not complete after resume")
	}
}

func TestShadowStoreKeyAuthentication(t *testing.T) {
	r := newRig(t, nil)
	id, _ := r.h[0].AllocContext(0x123)
	g := addrspace.NewGAddr(1, 0x500)
	r.eng.Spawn("attacker", func(p *sim.Proc) {
		pa := g.PAFrom(0).WithShadow()
		r.h[0].CPUWrite(p, pa, ShadowArg(id, 0, 0x999)) // wrong key
	})
	r.run(t)
	if r.h[0].Counters.Get("shadow-rejected") != 1 {
		t.Fatal("wrong-key shadow store accepted")
	}
	if r.os[0].Counters.Get("intr-protection") != 1 {
		t.Fatal("no protection interrupt raised")
	}
}

func TestShadowStoreBadContextOrSlot(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("bad", func(p *sim.Proc) {
		pa := addrspace.RemotePA(1, 0x500).WithShadow()
		r.h[0].CPUWrite(p, pa, ShadowArg(999, 0, 0)) // bad context id
		r.h[0].CPUWrite(p, pa, uint64(0)<<48|5<<40)  // bad slot
	})
	r.run(t)
	if r.h[0].Counters.Get("shadow-rejected") != 2 {
		t.Fatalf("rejections = %d, want 2", r.h[0].Counters.Get("shadow-rejected"))
	}
}

func TestShadowSpaceIsStoreOnly(t *testing.T) {
	r := newRig(t, nil)
	var got uint64
	r.eng.Spawn("r", func(p *sim.Proc) {
		got = r.h[0].CPURead(p, addrspace.RemotePA(1, 0x10).WithShadow())
	})
	r.run(t)
	if got != 0 || r.h[0].Counters.Get("shadow-read-rejected") != 1 {
		t.Fatal("shadow read not rejected")
	}
}

func TestStatusRegister(t *testing.T) {
	r := newRig(t, nil)
	const key = 3
	id, _ := r.h[0].AllocContext(key)
	var before, after uint64
	r.eng.Spawn("s", func(p *sim.Proc) {
		before = r.h[0].CPURead(p, CtxRegPA(id, CtxRegStatus))
		pa := addrspace.RemotePA(1, 0x600).WithShadow()
		r.h[0].CPUWrite(p, pa, ShadowArg(id, 1, key))
		after = r.h[0].CPURead(p, CtxRegPA(id, CtxRegStatus))
	})
	r.run(t)
	if before&StatusAllocated == 0 || before&StatusAddr1 != 0 {
		t.Fatalf("initial status %#x", before)
	}
	if after&StatusAddr1 == 0 {
		t.Fatalf("slot-1 address not reflected in status %#x", after)
	}
}

func TestCopyViaRegisterSequence(t *testing.T) {
	r := newRig(t, nil)
	const key = 9
	id, _ := r.h[0].AllocContext(key)
	for i := 0; i < 8; i++ {
		r.mem[1].WriteWord(uint64(0x800+8*i), uint64(50+i))
	}
	r.eng.Spawn("copy", func(p *sim.Proc) {
		r.h[0].CPUWrite(p, CtxRegPA(id, CtxRegOperand1), 8) // length
		src := addrspace.NewGAddr(1, 0x800).PAFrom(0).WithShadow()
		dst := addrspace.NewGAddr(0, 0x100).PAFrom(0).WithShadow()
		r.h[0].CPUWrite(p, src, ShadowArg(id, 0, key))
		r.h[0].CPUWrite(p, dst, ShadowArg(id, 1, key))
		r.h[0].CPUWrite(p, CtxRegPA(id, CtxRegCopyGo), 1)
		r.h[0].Fence(p)
	})
	r.run(t)
	for i := 0; i < 8; i++ {
		if got := r.mem[0].ReadWord(uint64(0x100 + 8*i)); got != uint64(50+i) {
			t.Fatalf("copied word %d = %d", i, got)
		}
	}
}

func TestCopyZeroLengthRejected(t *testing.T) {
	r := newRig(t, nil)
	const key = 2
	id, _ := r.h[0].AllocContext(key)
	r.eng.Spawn("copy", func(p *sim.Proc) {
		src := addrspace.NewGAddr(1, 0x800).PAFrom(0).WithShadow()
		dst := addrspace.NewGAddr(0, 0x100).PAFrom(0).WithShadow()
		r.h[0].CPUWrite(p, src, ShadowArg(id, 0, key))
		r.h[0].CPUWrite(p, dst, ShadowArg(id, 1, key))
		r.h[0].CPUWrite(p, CtxRegPA(id, CtxRegCopyGo), 1) // length still 0
	})
	r.run(t)
	if r.h[0].Counters.Get("launch-rejected") != 1 {
		t.Fatal("zero-length copy not rejected")
	}
}

func TestMulticastTableLimits(t *testing.T) {
	r := newRig(t, func(c *params.Config) { c.Sizing.MulticastEntries = 3 })
	h := r.h[0]
	if err := h.MapMulticast(1, addrspace.GPage{Node: 1, Page: 1}, addrspace.GPage{Node: 1, Page: 2}); err != nil {
		t.Fatal(err)
	}
	if h.MulticastEntriesUsed() != 2 {
		t.Fatalf("used = %d", h.MulticastEntriesUsed())
	}
	if err := h.MapMulticast(2, addrspace.GPage{Node: 1, Page: 3}, addrspace.GPage{Node: 1, Page: 4}); err == nil {
		t.Fatal("table overflow not rejected")
	}
	if got := h.MulticastTargets(1); len(got) != 2 {
		t.Fatalf("targets = %v", got)
	}
	h.UnmapMulticast(1)
	if h.MulticastEntriesUsed() != 0 {
		t.Fatal("unmap did not release entries")
	}
	if err := h.MapMulticast(2, addrspace.GPage{Node: 1, Page: 3}); err != nil {
		t.Fatal("entries not reusable after unmap")
	}
}

func TestPageCounterTableOverflow(t *testing.T) {
	r := newRig(t, func(c *params.Config) { c.Sizing.PageCounterPages = 1 })
	h := r.h[0]
	h.SetPageCounter(addrspace.GPage{Node: 1, Page: 0}, 5, 5)
	h.SetPageCounter(addrspace.GPage{Node: 1, Page: 1}, 5, 5) // overflows
	if h.Counters.Get("page-counter-overflow") != 1 {
		t.Fatal("counter table overflow not recorded")
	}
	if _, _, ok := h.PageCounter(addrspace.GPage{Node: 1, Page: 1}); ok {
		t.Fatal("overflow entry should not exist")
	}
	h.ClearPageCounter(addrspace.GPage{Node: 1, Page: 0})
	if _, _, ok := h.PageCounter(addrspace.GPage{Node: 1, Page: 0}); ok {
		t.Fatal("clear failed")
	}
}

func TestPageCounterReadDirection(t *testing.T) {
	r := newRig(t, nil)
	gp := addrspace.GPage{Node: 1, Page: 0}
	r.h[0].SetPageCounter(gp, 2, 10)
	r.eng.Spawn("r", func(p *sim.Proc) {
		r.h[0].CPURead(p, addrspace.RemotePA(1, 0x0))
		r.h[0].CPUWrite(p, addrspace.RemotePA(1, 0x0), 1)
		r.h[0].Fence(p)
	})
	r.run(t)
	reads, writes, ok := r.h[0].PageCounter(gp)
	if !ok || reads != 1 || writes != 9 {
		t.Fatalf("counters = %d/%d, want 1/9", reads, writes)
	}
}

func TestPageArgCodec(t *testing.T) {
	gp := addrspace.GPage{Node: 513, Page: 0x12345}
	for _, w := range []bool{true, false} {
		got, isW := DecodePageArg(EncodePageArg(gp, w))
		if got != gp || isW != w {
			t.Fatalf("round trip: %v/%v -> %v/%v", gp, w, got, isW)
		}
	}
}

func TestOrphanReplyCounted(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.h[1].Post(&packet.Packet{Type: packet.ReadReply, Dst: 0, ReqID: 999})
	})
	r.run(t)
	if r.h[0].Counters.Get("orphan-reply") != 1 {
		t.Fatal("orphan reply not counted")
	}
}

func TestUnhandledCoherencePacketCounted(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.h[1].Post(&packet.Packet{Type: packet.UpdateFwd, Dst: 0, Addr: addrspace.NewGAddr(0, 0)})
	})
	r.run(t)
	if r.h[0].Counters.Get("unhandled-UpdateFwd") != 1 {
		t.Fatal("coherence packet without protocol not counted")
	}
}

func TestMsgDataDroppedWithoutSink(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.h[1].Post(&packet.Packet{Type: packet.MsgData, Dst: 0, Data: []uint64{1}})
	})
	r.run(t)
	if r.h[0].Counters.Get("msg-dropped") != 1 {
		t.Fatal("sink-less MsgData not counted")
	}
}

// claimFirst is a coherence layer that claims the first packet of each
// VC class, servicing it in 1 ns, and declines everything else.
type claimFirst struct {
	eng     *sim.Engine
	claimed [packet.NumVCs]bool
	seen    int
}

func (c *claimFirst) LocalSharedWrite(*sim.Proc, uint64, uint64) bool { return false }

func (c *claimFirst) LocalSharedRead(*sim.Proc, uint64) (uint64, bool) { return 0, false }

func (c *claimFirst) IncomingPacket(pkt *packet.Packet, done func()) bool {
	c.seen++
	vc := pkt.Class()
	if c.claimed[vc] {
		return false
	}
	c.claimed[vc] = true
	c.eng.Schedule(1, done)
	return true
}

// TestInterceptedPacketReleasesVC has a coherence layer claim the first
// packet on each VC: the next packet on that VC must still be serviced,
// by the default handler, so the claim released the receive pipeline.
// Claimed packets are counted as received like any other.
func TestInterceptedPacketReleasesVC(t *testing.T) {
	r := newRig(t, nil)
	c := &claimFirst{eng: r.eng}
	r.h[0].SetCoherence(c)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.h[1].Post(&packet.Packet{Type: packet.UpdateFwd, Dst: 0, Addr: addrspace.NewGAddr(0, 0)})
		r.h[1].Post(&packet.Packet{Type: packet.UpdateFwd, Dst: 0, Addr: addrspace.NewGAddr(0, 8)})
		r.h[1].Post(&packet.Packet{Type: packet.ReadReply, Dst: 0, ReqID: 998})
		r.h[1].Post(&packet.Packet{Type: packet.ReadReply, Dst: 0, ReqID: 999})
	})
	r.run(t)
	if c.seen != 4 {
		t.Fatalf("coherence layer saw %d packets, want 4", c.seen)
	}
	cs := r.h[0].Counters
	if got := cs.Get("unhandled-UpdateFwd"); got != 1 {
		t.Fatalf("declined UpdateFwd counted %d times, want 1", got)
	}
	if got := cs.Get("orphan-reply"); got != 1 {
		t.Fatalf("declined ReadReply counted %d orphan replies, want 1", got)
	}
	if cs.Get("rx-UpdateFwd") != 2 || cs.Get("rx-ReadReply") != 2 {
		t.Fatalf("rx counters = %d UpdateFwd, %d ReadReply; want 2 each",
			cs.Get("rx-UpdateFwd"), cs.Get("rx-ReadReply"))
	}
}

func TestBadRegisterAccessCounted(t *testing.T) {
	r := newRig(t, nil)
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.h[0].CPUWrite(p, addrspace.HIBRegPA(uint64(len(r.h[0].contexts))*CtxStride), 1)
		if v := r.h[0].CPURead(p, addrspace.HIBRegPA(uint64(len(r.h[0].contexts))*CtxStride)); v != LaunchError {
			t.Error("bad register read should return LaunchError")
		}
		r.h[0].CPUWrite(p, CtxRegPA(0, 0x38), 1) // undefined register offset
	})
	r.run(t)
	if r.h[0].Counters.Get("reg-write-bad") != 2 {
		t.Fatalf("bad writes = %d, want 2", r.h[0].Counters.Get("reg-write-bad"))
	}
	if r.h[0].Counters.Get("reg-read-bad") != 1 {
		t.Fatal("bad read not counted")
	}
}

func TestOperandRegistersReadBack(t *testing.T) {
	r := newRig(t, nil)
	id, _ := r.h[0].AllocContext(1)
	var v1, v2 uint64
	r.eng.Spawn("x", func(p *sim.Proc) {
		r.h[0].CPUWrite(p, CtxRegPA(id, CtxRegOperand1), 111)
		r.h[0].CPUWrite(p, CtxRegPA(id, CtxRegOperand2), 222)
		v1 = r.h[0].CPURead(p, CtxRegPA(id, CtxRegOperand1))
		v2 = r.h[0].CPURead(p, CtxRegPA(id, CtxRegOperand2))
	})
	r.run(t)
	if v1 != 111 || v2 != 222 {
		t.Fatalf("operand read-back %d/%d", v1, v2)
	}
}

func TestMaxOutstandingReadsSerializes(t *testing.T) {
	// The default machine allows a single outstanding read (§2.3.5
	// footnote); two concurrent readers on one node must serialize.
	r := newRig(t, nil)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		r.eng.Spawn("r", func(p *sim.Proc) {
			r.h[0].CPURead(p, addrspace.RemotePA(1, uint64(8*i)))
			done[i] = p.Now()
		})
	}
	r.run(t)
	d := done[1] - done[0]
	if d < 0 {
		d = -d
	}
	if d < 5*sim.Microsecond {
		t.Fatalf("reads overlapped (finish gap %v); must serialize on the read slot", d)
	}
}
