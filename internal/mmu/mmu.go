// Package mmu models virtual memory: per-process page tables, a TLB with
// a miss cost, protection checking, and the shadow-address translation on
// which the Telegraphos special-operation launch relies (§2.2.4).
//
// Protection is central to the paper's launch story: a user process may
// only hand the HIB physical addresses it obtained through its own valid
// translations. A store to a shadow virtual address succeeds only if the
// ordinary TLB/page-table check admits a write to the base address; the
// resulting physical address is delivered with the shadow bit set, which
// tells the HIB to latch it as a special-operation argument instead of
// performing the store.
package mmu

import (
	"fmt"
	"slices"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/sim"
)

// Access is the kind of memory access being translated.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
)

// String names the access.
func (a Access) String() string {
	if a == AccessRead {
		return "read"
	}
	return "write"
}

// Perm is a page-protection bit set.
type Perm uint8

// Protection bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	// PermRW is the common read-write protection.
	PermRW = PermRead | PermWrite
)

// FaultReason classifies a translation fault.
type FaultReason uint8

// Fault reasons.
const (
	// FaultUnmapped means no valid translation exists for the page.
	FaultUnmapped FaultReason = iota
	// FaultProtection means the mapping exists but forbids the access.
	FaultProtection
)

// String names the reason.
func (r FaultReason) String() string {
	if r == FaultUnmapped {
		return "unmapped"
	}
	return "protection"
}

// Fault describes a failed translation. It implements error.
type Fault struct {
	VA     addrspace.VAddr
	Access Access
	Reason FaultReason
}

// Error renders the fault.
func (f *Fault) Error() string {
	return fmt.Sprintf("page fault: %v access to va %#x (%v)", f.Access, uint64(f.VA), f.Reason)
}

// PTE is one page-table entry: the physical frame base (which may carry
// the I/O and node bits of a remote mapping) and its protection.
type PTE struct {
	Frame addrspace.PAddr // page-aligned physical base
	Perm  Perm
}

// AddressSpace is a process page table.
type AddressSpace struct {
	pageSize int
	ptes     map[addrspace.PageNum]PTE
}

// NewAddressSpace returns an empty page table with the given page size.
func NewAddressSpace(pageSize int) *AddressSpace {
	if pageSize <= 0 || pageSize%addrspace.WordSize != 0 {
		panic(fmt.Sprintf("mmu: invalid page size %d", pageSize))
	}
	return &AddressSpace{pageSize: pageSize, ptes: make(map[addrspace.PageNum]PTE)}
}

func (as *AddressSpace) vpage(va addrspace.VAddr) addrspace.PageNum {
	return addrspace.PageOf(uint64(va.Base()), as.pageSize)
}

// Map installs a translation: virtual page containing va (which must be
// page-aligned) maps to the physical frame with protection perm.
func (as *AddressSpace) Map(va addrspace.VAddr, frame addrspace.PAddr, perm Perm) {
	if uint64(va.Base())%uint64(as.pageSize) != 0 {
		panic(fmt.Sprintf("mmu: Map at unaligned va %#x", uint64(va)))
	}
	as.ptes[as.vpage(va)] = PTE{Frame: frame, Perm: perm}
}

// Unmap removes the translation for the page containing va.
func (as *AddressSpace) Unmap(va addrspace.VAddr) {
	delete(as.ptes, as.vpage(va))
}

// Protect changes the protection of the page containing va; it reports
// whether a mapping existed.
func (as *AddressSpace) Protect(va addrspace.VAddr, perm Perm) bool {
	vp := as.vpage(va)
	pte, ok := as.ptes[vp]
	if !ok {
		return false
	}
	pte.Perm = perm
	as.ptes[vp] = pte
	return true
}

// Translate maps va to a physical address, enforcing protection. A shadow
// virtual address (§2.2.4) translates like its base address, requires
// write permission, and yields the physical address with the shadow bit
// set.
func (as *AddressSpace) Translate(va addrspace.VAddr, access Access) (addrspace.PAddr, *Fault) {
	pte, ok := as.ptes[as.vpage(va)]
	if !ok {
		return 0, &Fault{VA: va, Access: access, Reason: FaultUnmapped}
	}
	need := PermRead
	if access == AccessWrite || va.IsShadow() {
		need = PermWrite
	}
	if pte.Perm&need == 0 {
		return 0, &Fault{VA: va, Access: access, Reason: FaultProtection}
	}
	pa := pte.Frame + addrspace.PAddr(uint64(va.Base())%uint64(as.pageSize))
	if va.IsShadow() {
		pa = pa.WithShadow()
	}
	return pa, nil
}

// TLB is a FIFO-replacement translation cache. It caches only the *fact*
// that a page's translation was recently used; the authoritative mapping
// stays in the AddressSpace, so TLB hits see current protections while
// misses pay MissCost.
type TLB struct {
	size   int
	order  []addrspace.PageNum // cached pages, oldest first; at most size
	hits   int64
	misses int64

	// One-entry front cache: the last page that hit. Translation runs on
	// every simulated memory access, and repeated accesses to one page are
	// the common case, so this skips the scan. It only ever names a cached
	// page: eviction, Invalidate and Flush clear it when they drop that
	// page, so it changes no hit or miss.
	last      addrspace.PageNum
	lastValid bool
}

// NewTLB returns an empty TLB holding size entries.
func NewTLB(size int) *TLB {
	if size < 1 {
		panic("mmu: TLB size must be >= 1")
	}
	return &TLB{size: size}
}

// Lookup reports whether vp is cached, updating hit/miss counters.
func (t *TLB) Lookup(vp addrspace.PageNum) bool {
	if t.lastValid && vp == t.last {
		t.hits++
		return true
	}
	if slices.Contains(t.order, vp) {
		t.hits++
		t.last = vp
		t.lastValid = true
		return true
	}
	t.misses++
	return false
}

// Insert caches vp, evicting the oldest entry if full. The FIFO shifts
// within its array, so once it holds size pages it never allocates.
func (t *TLB) Insert(vp addrspace.PageNum) {
	if slices.Contains(t.order, vp) {
		return
	}
	if len(t.order) >= t.size {
		if t.lastValid && t.order[0] == t.last {
			t.lastValid = false
		}
		t.order = slices.Delete(t.order, 0, 1)
	}
	t.order = append(t.order, vp)
}

// Invalidate drops vp from the cache (after Unmap/Protect).
func (t *TLB) Invalidate(vp addrspace.PageNum) {
	if t.lastValid && vp == t.last {
		t.lastValid = false
	}
	if i := slices.Index(t.order, vp); i >= 0 {
		t.order = slices.Delete(t.order, i, i+1)
	}
}

// Flush empties the TLB (context switch).
func (t *TLB) Flush() {
	t.order = t.order[:0]
	t.lastValid = false
}

// Hits reports the cumulative hit count.
func (t *TLB) Hits() int64 { return t.hits }

// Misses reports the cumulative miss count.
func (t *TLB) Misses() int64 { return t.misses }

// MMU combines an address space with a TLB and a miss cost; it is the
// translation unit the CPU model calls on every access.
type MMU struct {
	AS       *AddressSpace
	TLB      *TLB
	MissCost sim.Time
}

// New returns an MMU over a fresh address space.
func New(pageSize, tlbSize int, missCost sim.Time) *MMU {
	return &MMU{AS: NewAddressSpace(pageSize), TLB: NewTLB(tlbSize), MissCost: missCost}
}

// Translate performs a timed translation for the process p: a TLB miss
// costs MissCost (the table walk) before the page-table check. On a fault
// nothing is cached.
func (m *MMU) Translate(p *sim.Proc, va addrspace.VAddr, access Access) (addrspace.PAddr, *Fault) {
	vp := addrspace.PageOf(uint64(va.Base()), m.AS.pageSize)
	if !m.TLB.Lookup(vp) {
		if p != nil && m.MissCost > 0 {
			p.Sleep(m.MissCost)
		}
		pa, fault := m.AS.Translate(va, access)
		if fault == nil {
			m.TLB.Insert(vp)
		}
		return pa, fault
	}
	return m.AS.Translate(va, access)
}

// InvalidatePage drops the TLB entry for the page containing va; callers
// must invoke it after Unmap or Protect so stale permissions are not
// honored. (Lookups consult the page table for the mapping itself, so
// this is about keeping the hit/miss timing honest.)
func (m *MMU) InvalidatePage(va addrspace.VAddr) {
	m.TLB.Invalidate(addrspace.PageOf(uint64(va.Base()), m.AS.pageSize))
}
