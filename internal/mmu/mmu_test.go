package mmu

import (
	"errors"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/sim"
)

const ps = 4096

func TestMapTranslate(t *testing.T) {
	as := NewAddressSpace(ps)
	as.Map(0x10000, addrspace.LocalPA(0x4000), PermRW)
	pa, fault := as.Translate(0x10008, AccessRead)
	if fault != nil {
		t.Fatal(fault)
	}
	if pa != addrspace.LocalPA(0x4008) {
		t.Fatalf("pa = %v", pa)
	}
}

func TestRemoteMapping(t *testing.T) {
	as := NewAddressSpace(ps)
	as.Map(0x20000, addrspace.RemotePA(3, 0x8000), PermRW)
	pa, fault := as.Translate(0x20010, AccessWrite)
	if fault != nil {
		t.Fatal(fault)
	}
	if !pa.IsIO() || pa.Node() != 3 || pa.Offset() != 0x8010 {
		t.Fatalf("remote pa = %v", pa)
	}
}

func TestUnmappedFault(t *testing.T) {
	as := NewAddressSpace(ps)
	_, fault := as.Translate(0x5000, AccessRead)
	if fault == nil || fault.Reason != FaultUnmapped {
		t.Fatalf("fault = %v", fault)
	}
	var err error = fault
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatal("Fault does not satisfy error")
	}
	if f.Error() == "" {
		t.Fatal("empty fault message")
	}
}

func TestProtectionFault(t *testing.T) {
	as := NewAddressSpace(ps)
	as.Map(0x10000, addrspace.LocalPA(0x4000), PermRead)
	if _, fault := as.Translate(0x10000, AccessRead); fault != nil {
		t.Fatalf("read should be allowed: %v", fault)
	}
	_, fault := as.Translate(0x10000, AccessWrite)
	if fault == nil || fault.Reason != FaultProtection {
		t.Fatalf("write to read-only page: fault = %v", fault)
	}
}

func TestProtectAndUnmap(t *testing.T) {
	as := NewAddressSpace(ps)
	as.Map(0x10000, addrspace.LocalPA(0), PermRW)
	if !as.Protect(0x10000, PermRead) {
		t.Fatal("Protect on mapped page returned false")
	}
	if _, fault := as.Translate(0x10000, AccessWrite); fault == nil {
		t.Fatal("write allowed after Protect(read-only)")
	}
	as.Unmap(0x10000)
	if _, fault := as.Translate(0x10000, AccessRead); fault == nil || fault.Reason != FaultUnmapped {
		t.Fatal("translation survives Unmap")
	}
	if as.Protect(0x99000, PermRead) {
		t.Fatal("Protect on unmapped page returned true")
	}
}

func TestShadowTranslation(t *testing.T) {
	as := NewAddressSpace(ps)
	as.Map(0x10000, addrspace.RemotePA(2, 0x4000), PermRW)
	va := addrspace.VAddr(0x10008).Shadow()
	pa, fault := as.Translate(va, AccessWrite)
	if fault != nil {
		t.Fatal(fault)
	}
	if !pa.IsShadow() {
		t.Fatal("shadow VA did not produce shadow PA")
	}
	if pa.ClearShadow() != addrspace.RemotePA(2, 0x4008) {
		t.Fatalf("shadow PA base wrong: %v", pa)
	}
}

func TestShadowRequiresWritePermission(t *testing.T) {
	// §2.2.4: a user may only pass physical addresses it could write.
	as := NewAddressSpace(ps)
	as.Map(0x10000, addrspace.RemotePA(2, 0x4000), PermRead)
	_, fault := as.Translate(addrspace.VAddr(0x10000).Shadow(), AccessRead)
	if fault == nil || fault.Reason != FaultProtection {
		t.Fatal("shadow access to read-only page must fault")
	}
}

func TestMapAlignmentPanics(t *testing.T) {
	as := NewAddressSpace(ps)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Map did not panic")
		}
	}()
	as.Map(0x10004, addrspace.LocalPA(0), PermRW)
}

func TestTLBFIFOReplacement(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1)
	tlb.Insert(2)
	tlb.Insert(3) // evicts 1
	if tlb.Lookup(1) {
		t.Fatal("FIFO should have evicted page 1")
	}
	if !tlb.Lookup(2) || !tlb.Lookup(3) {
		t.Fatal("pages 2,3 should be present")
	}
	if tlb.Hits() != 2 || tlb.Misses() != 1 {
		t.Fatalf("hit/miss = %d/%d", tlb.Hits(), tlb.Misses())
	}
	tlb.Invalidate(2)
	if tlb.Lookup(2) {
		t.Fatal("Invalidate did not remove entry")
	}
	tlb.Insert(3) // duplicate insert is a no-op
	tlb.Flush()
	if tlb.Lookup(3) {
		t.Fatal("Flush did not clear TLB")
	}
}

func TestMMUTimedTranslation(t *testing.T) {
	e := sim.NewEngine(1)
	m := New(ps, 4, 400)
	m.AS.Map(0x10000, addrspace.LocalPA(0), PermRW)
	var first, second sim.Time
	e.Spawn("prog", func(p *sim.Proc) {
		start := p.Now()
		if _, f := m.Translate(p, 0x10000, AccessRead); f != nil {
			t.Error(f)
		}
		first = p.Now() - start
		start = p.Now()
		if _, f := m.Translate(p, 0x10008, AccessRead); f != nil {
			t.Error(f)
		}
		second = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 400 {
		t.Fatalf("first (miss) cost %v, want 400", first)
	}
	if second != 0 {
		t.Fatalf("second (hit) cost %v, want 0", second)
	}
}

func TestMMUFaultNotCached(t *testing.T) {
	e := sim.NewEngine(1)
	m := New(ps, 4, 100)
	e.Spawn("prog", func(p *sim.Proc) {
		if _, f := m.Translate(p, 0x10000, AccessRead); f == nil {
			t.Error("expected fault")
		}
		// Map and retry: still a miss (fault was not cached), then works.
		m.AS.Map(0x10000, addrspace.LocalPA(0), PermRW)
		pa, f := m.Translate(p, 0x10000, AccessRead)
		if f != nil || pa != addrspace.LocalPA(0) {
			t.Errorf("retry failed: %v %v", pa, f)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.TLB.Misses() != 2 {
		t.Fatalf("misses = %d, want 2", m.TLB.Misses())
	}
}

func TestMMUInvalidatePage(t *testing.T) {
	e := sim.NewEngine(1)
	m := New(ps, 4, 100)
	m.AS.Map(0x10000, addrspace.LocalPA(0), PermRW)
	e.Spawn("prog", func(p *sim.Proc) {
		m.Translate(p, 0x10000, AccessRead)
		m.InvalidatePage(0x10000)
		start := p.Now()
		m.Translate(p, 0x10000, AccessRead)
		if p.Now()-start != 100 {
			t.Error("translation after InvalidatePage should miss")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessAndReasonStrings(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" {
		t.Fatal("access strings")
	}
	if FaultUnmapped.String() != "unmapped" || FaultProtection.String() != "protection" {
		t.Fatal("reason strings")
	}
}

// refTLB is the map-and-slice FIFO the TLB replaced, kept as the
// reference FuzzTLB compares it against. It has no front cache: a page
// hits exactly while it is among the size most recently inserted pages
// not since invalidated or flushed.
type refTLB struct {
	size         int
	order        []addrspace.PageNum
	present      map[addrspace.PageNum]bool
	hits, misses int64
}

func (r *refTLB) lookup(vp addrspace.PageNum) bool {
	if r.present[vp] {
		r.hits++
		return true
	}
	r.misses++
	return false
}

func (r *refTLB) insert(vp addrspace.PageNum) {
	if r.present[vp] {
		return
	}
	if len(r.order) >= r.size {
		delete(r.present, r.order[0])
		r.order = r.order[1:]
	}
	r.order = append(r.order, vp)
	r.present[vp] = true
}

func (r *refTLB) invalidate(vp addrspace.PageNum) {
	if !r.present[vp] {
		return
	}
	delete(r.present, vp)
	for i, p := range r.order {
		if p == vp {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// FuzzTLB runs random Lookup/Insert/Invalidate/Flush streams on the TLB
// and on a map-based reference FIFO: every lookup must agree, and so
// must the hit and miss counters. Each op is two bytes: the kind and a
// page among 24, so small TLBs both hit and evict.
func FuzzTLB(f *testing.F) {
	f.Add(uint8(2), []byte{1, 1, 1, 2, 1, 3, 0, 1, 0, 2, 2, 2, 0, 2, 3, 0, 0, 3})
	f.Add(uint8(4), []byte{1, 5, 0, 5, 0, 5, 2, 5, 0, 5, 1, 6, 1, 7, 1, 8, 1, 9, 0, 6})
	f.Add(uint8(1), []byte{1, 0, 0, 0, 1, 1, 0, 0, 0, 1})
	f.Add(uint8(0), []byte("10001100")) // a page evicted while it is the front cache
	f.Fuzz(func(t *testing.T, size uint8, prog []byte) {
		n := int(size%8) + 1
		tlb := NewTLB(n)
		ref := &refTLB{size: n, present: map[addrspace.PageNum]bool{}}
		for i := 0; i+1 < len(prog); i += 2 {
			vp := addrspace.PageNum(prog[i+1] % 24)
			switch prog[i] % 4 {
			case 0:
				if got, want := tlb.Lookup(vp), ref.lookup(vp); got != want {
					t.Fatalf("op %d: Lookup(%d) = %v, reference %v", i/2, vp, got, want)
				}
			case 1:
				tlb.Insert(vp)
				ref.insert(vp)
			case 2:
				tlb.Invalidate(vp)
				ref.invalidate(vp)
			default:
				tlb.Flush()
				ref.order, ref.present = nil, map[addrspace.PageNum]bool{}
			}
			if tlb.Hits() != ref.hits || tlb.Misses() != ref.misses {
				t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", i/2, tlb.Hits(), tlb.Misses(), ref.hits, ref.misses)
			}
		}
	})
}

// TestTLBAllocs pins a full TLB's churn at zero allocations: misses
// that evict, invalidations and flushes all reuse the FIFO's array.
func TestTLBAllocs(t *testing.T) {
	tlb := NewTLB(64)
	churn := func() {
		for i := 0; i < 200; i++ {
			// 48 pages that fit, then 100 that evict them.
			vp := addrspace.PageNum(i * 7 % 48)
			if i >= 100 {
				vp = addrspace.PageNum(i)
			}
			if !tlb.Lookup(vp) {
				tlb.Insert(vp)
			}
			if i%50 == 0 {
				tlb.Invalidate(vp)
			}
		}
		tlb.Flush()
	}
	churn() // grow the FIFO to its 64 entries
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Errorf("%.2f allocs per 200 translations, want 0", avg)
	}
	if tlb.Misses() == 0 || tlb.Hits() == 0 {
		t.Fatalf("churn did not both hit and miss: %d hits, %d misses", tlb.Hits(), tlb.Misses())
	}
}
