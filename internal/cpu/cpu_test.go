package cpu

import (
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/hib"
	"telegraphos/internal/mem"
	"telegraphos/internal/mmu"
	"telegraphos/internal/osmodel"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/tchan"
	"telegraphos/internal/topology"
)

// rig builds a 2-node machine exposing the CPUs.
type rig struct {
	eng *sim.Engine
	cpu [2]*CPU
	mem [2]*mem.Memory
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cfg := params.Default(2)
	cfg.Sizing.MemBytes = 1 << 20
	eng := sim.NewEngine(1)
	net := topology.Build(cfg.Fabric(), func(int) *sim.Engine { return eng }, cfg.Link, cfg.Switch)
	r := &rig{eng: eng}
	for i := 0; i < 2; i++ {
		id := addrspace.NodeID(i)
		r.mem[i] = mem.New(cfg.Sizing.MemBytes, cfg.Sizing.PageSize)
		os := osmodel.New(eng, id, cfg.Timing)
		m := mmu.New(cfg.Sizing.PageSize, cfg.Sizing.TLBEntries, cfg.Timing.TLBMissCost)
		h := hib.New(eng, id, net, tchan.New(eng), r.mem[i], os, cfg)
		r.cpu[i] = New(eng, id, m, r.mem[i], os, h, cfg.Timing)
		ctxID, err := h.AllocContext(42)
		if err != nil {
			t.Fatal(err)
		}
		r.cpu[i].CtxID, r.cpu[i].Key = ctxID, 42
	}
	return r
}

func (r *rig) mapLocal(node int, va addrspace.VAddr, off uint64, perm mmu.Perm) {
	r.cpu[node].MMU.AS.Map(va, addrspace.LocalPA(off), perm)
}

func (r *rig) mapRemote(node int, va addrspace.VAddr, target addrspace.NodeID, off uint64) {
	r.cpu[node].MMU.AS.Map(va, addrspace.RemotePA(target, off), mmu.PermRW)
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalLoadStore(t *testing.T) {
	r := newRig(t)
	r.mapLocal(0, 0x10000, 0x8000, mmu.PermRW)
	var got uint64
	r.cpu[0].Spawn("p", func(x *Ctx) {
		x.Store(0x10008, 99)
		got = x.Load(0x10008)
	})
	r.run(t)
	if got != 99 {
		t.Fatalf("local round trip = %d", got)
	}
	if r.cpu[0].Counters.Get("loads") != 1 || r.cpu[0].Counters.Get("stores") != 1 {
		t.Fatal("instruction counters wrong")
	}
}

func TestRemoteStoreThroughMapping(t *testing.T) {
	r := newRig(t)
	r.mapRemote(0, 0x20000, 1, 0x4000)
	r.cpu[0].Spawn("p", func(x *Ctx) {
		x.Store(0x20010, 7)
		x.Fence()
	})
	r.run(t)
	if got := r.mem[1].ReadWord(0x4010); got != 7 {
		t.Fatalf("remote word = %d", got)
	}
}

func TestUnhandledFaultKillsProgram(t *testing.T) {
	r := newRig(t)
	r.cpu[0].Spawn("wild", func(x *Ctx) {
		x.Load(0xDEAD0000)
	})
	if err := r.eng.Run(); err == nil {
		t.Fatal("unmapped access should abort the simulation with an error")
	}
}

func TestFaultHandlerRetries(t *testing.T) {
	r := newRig(t)
	faults := 0
	r.cpu[0].OS.SetFaultHandler(func(p *sim.Proc, f *mmu.Fault) bool {
		faults++
		// Lazily map the page on first touch (demand paging).
		r.mapLocal(0, f.VA.Base(), 0x9000, mmu.PermRW)
		return true
	})
	var got uint64
	r.cpu[0].Spawn("p", func(x *Ctx) {
		x.Store(0x30000, 5)
		got = x.Load(0x30000)
	})
	r.run(t)
	if faults != 1 || got != 5 {
		t.Fatalf("faults=%d got=%d", faults, got)
	}
}

func TestTryLoadReturnsFault(t *testing.T) {
	r := newRig(t)
	var loadErr, storeErr error
	r.mapLocal(0, 0x40000, 0xA000, mmu.PermRead)
	r.cpu[0].Spawn("p", func(x *Ctx) {
		_, loadErr = x.TryLoad(0x50000)   // unmapped
		storeErr = x.TryStore(0x40000, 1) // read-only
		if _, err := x.TryLoad(0x40000); err != nil {
			t.Error("read of RO page should succeed")
		}
		if err := x.TryStore(0x50000, 1); err == nil {
			t.Error("TryStore to unmapped should fail")
		}
	})
	r.run(t)
	if loadErr == nil || storeErr == nil {
		t.Fatalf("faults not returned: %v / %v", loadErr, storeErr)
	}
}

func TestTryOpsDoNotInvokeOS(t *testing.T) {
	r := newRig(t)
	r.cpu[0].OS.SetFaultHandler(func(p *sim.Proc, f *mmu.Fault) bool {
		t.Error("Try ops must not call the OS fault handler")
		return false
	})
	r.cpu[0].Spawn("p", func(x *Ctx) {
		x.TryLoad(0x70000)
	})
	r.run(t)
}

func TestAtomicLaunchSequenceTraffic(t *testing.T) {
	r := newRig(t)
	r.mapRemote(0, 0x60000, 1, 0x6000)
	var old uint64
	r.cpu[0].Spawn("p", func(x *Ctx) {
		old = x.FetchAndStore(0x60000, 11)
		if v := x.CompareAndSwap(0x60000, 22, 11); v != 11 {
			t.Errorf("CAS old = %d", v)
		}
	})
	r.run(t)
	if old != 0 {
		t.Fatalf("fetch&store old = %d", old)
	}
	if got := r.mem[1].ReadWord(0x6000); got != 22 {
		t.Fatalf("final value = %d", got)
	}
	h := r.cpu[0].HIB
	if h.Counters.Get("shadow-store") != 2 || h.Counters.Get("launch-atomic") != 2 {
		t.Fatalf("launch traffic wrong: %s", h.Counters)
	}
}

func TestAtomicViaOSSlower(t *testing.T) {
	r := newRig(t)
	r.mapRemote(0, 0x60000, 1, 0x6000)
	var user, viaOS sim.Time
	r.cpu[0].Spawn("p", func(x *Ctx) {
		x.FetchAndInc(0x60000) // warm
		s := x.Now()
		x.FetchAndInc(0x60000)
		user = x.Now() - s
		s = x.Now()
		x.AtomicViaOS(packet.FetchAndInc, 0x60000, 0, 0)
		viaOS = x.Now() - s
	})
	r.run(t)
	if viaOS < user*3 {
		t.Fatalf("OS launch %v should be ≥3x user launch %v", viaOS, user)
	}
	if got := r.mem[1].ReadWord(0x6000); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

func TestRemoteCopySequence(t *testing.T) {
	r := newRig(t)
	r.mapRemote(0, 0x80000, 1, 0x7000) // source on node 1
	r.mapLocal(0, 0x90000, 0xB000, mmu.PermRW)
	// Local destination must be reachable by the copy engine: map it via
	// the HIB (shared region on self).
	r.cpu[0].MMU.AS.Map(0x90000, addrspace.RemotePA(0, 0xB000), mmu.PermRW)
	for i := 0; i < 4; i++ {
		r.mem[1].WriteWord(0x7000+uint64(8*i), uint64(60+i))
	}
	r.cpu[0].Spawn("p", func(x *Ctx) {
		x.RemoteCopy(0x90000, 0x80000, 4)
		x.Fence()
	})
	r.run(t)
	for i := 0; i < 4; i++ {
		if got := r.mem[0].ReadWord(0xB000 + uint64(8*i)); got != uint64(60+i) {
			t.Fatalf("copied word %d = %d", i, got)
		}
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	r := newRig(t)
	r.cpu[0].Spawn("p", func(x *Ctx) {
		s := x.Now()
		x.Compute(5 * sim.Microsecond)
		if x.Now()-s != 5*sim.Microsecond {
			t.Error("Compute did not advance exactly")
		}
	})
	r.run(t)
}

func TestTLBMissCostVisible(t *testing.T) {
	r := newRig(t)
	r.mapLocal(0, 0xA0000, 0xC000, mmu.PermRW)
	var first, second sim.Time
	r.cpu[0].Spawn("p", func(x *Ctx) {
		s := x.Now()
		x.Load(0xA0000)
		first = x.Now() - s
		s = x.Now()
		x.Load(0xA0000)
		second = x.Now() - s
	})
	r.run(t)
	if first <= second {
		t.Fatalf("first access (TLB miss, %v) should cost more than second (%v)", first, second)
	}
}
