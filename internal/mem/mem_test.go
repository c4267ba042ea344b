package mem

import (
	"testing"
	"testing/quick"

	"telegraphos/internal/addrspace"
)

func TestReadWriteWord(t *testing.T) {
	m := New(4096, 1024)
	m.WriteWord(0, 42)
	m.WriteWord(4088, 99)
	if m.ReadWord(0) != 42 || m.ReadWord(4088) != 99 {
		t.Fatal("word round trip failed")
	}
	if m.ReadWord(8) != 0 {
		t.Fatal("fresh memory not zeroed")
	}
}

func TestGeometry(t *testing.T) {
	m := New(8192, 1024)
	if m.Size() != 8192 || m.PageSize() != 1024 || m.NumPages() != 8 || m.WordsPerPage() != 128 {
		t.Fatalf("geometry wrong: %d/%d/%d/%d", m.Size(), m.PageSize(), m.NumPages(), m.WordsPerPage())
	}
}

func TestPageRoundTrip(t *testing.T) {
	m := New(4096, 1024)
	data := make([]uint64, 128)
	for i := range data {
		data[i] = uint64(i * 7)
	}
	m.WritePage(2, data)
	got := m.ReadPage(2)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("page word %d = %d, want %d", i, got[i], data[i])
		}
	}
	// Neighbouring pages untouched.
	if m.ReadWord(addrspace.PageBase(1, 1024)) != 0 || m.ReadWord(addrspace.PageBase(3, 1024)) != 0 {
		t.Fatal("WritePage leaked into neighbours")
	}
	// ReadPage returns a copy.
	got[0] = 12345
	if m.ReadWord(addrspace.PageBase(2, 1024)) == 12345 {
		t.Fatal("ReadPage aliases memory")
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	m := New(1<<16, 4096)
	f := func(off uint64, v uint64) bool {
		off = (off % uint64(m.Size())) &^ 7
		m.WriteWord(off, v)
		return m.ReadWord(off) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	m := New(4096, 1024)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("unaligned read", func() { m.ReadWord(3) })
	mustPanic("oob write", func() { m.WriteWord(4096, 1) })
	mustPanic("short WritePage", func() { m.WritePage(0, make([]uint64, 3)) })
	mustPanic("bad size", func() { New(100, 1024) })
	mustPanic("bad page size", func() { New(4096, 1000) })
	mustPanic("page > size", func() { New(4096, 8192) })
}

func TestCounters(t *testing.T) {
	m := New(4096, 1024)
	m.WriteWord(0, 1)
	m.ReadWord(0)
	m.ReadWord(8)
	if m.Writes() != 1 || m.Reads() != 2 {
		t.Fatalf("counters %d/%d", m.Reads(), m.Writes())
	}
}

// TestOneWordTouchAllocatesOnePage: a write into a fresh memory
// materializes exactly one chunk, one default 8 KiB page of words, and
// leaves the rest of a 2 MB node unallocated.
func TestOneWordTouchAllocatesOnePage(t *testing.T) {
	m := New(2<<20, addrspace.DefaultPageSize)
	if len(m.chunks) != 256 {
		t.Fatalf("%d chunk slots for 2 MB, want 256", len(m.chunks))
	}
	m.WriteWord(3*addrspace.DefaultPageSize+40, 7)
	var got []int
	for i, c := range m.chunks {
		if c != nil {
			got = append(got, i)
			if len(c) != 1024 {
				t.Fatalf("chunk %d holds %d words, want 1024", i, len(c))
			}
		}
	}
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("chunks %v materialized, want [3]", got)
	}
	if m.ReadWord(3*addrspace.DefaultPageSize+40) != 7 {
		t.Fatal("word round trip failed")
	}
}

// TestPageRoundTripAcrossChunks: whole-page writes and reads round-trip
// when pages are smaller than a chunk (4 KiB: two pages share one) and
// larger (16 KiB: one page spans two), written out of order.
func TestPageRoundTripAcrossChunks(t *testing.T) {
	for _, ps := range []int{4 << 10, 16 << 10} {
		m := New(8*ps, ps)
		pattern := func(pn, j int) uint64 { return uint64(pn)<<32 | uint64(j) + 1 }
		order := []int{5, 0, 7, 2, 6, 1, 3, 4}
		for _, pn := range order {
			data := make([]uint64, m.WordsPerPage())
			for j := range data {
				data[j] = pattern(pn, j)
			}
			m.WritePage(addrspace.PageNum(pn), data)
		}
		for pn := 0; pn < m.NumPages(); pn++ {
			got := m.ReadPage(addrspace.PageNum(pn))
			for j, v := range got {
				if v != pattern(pn, j) {
					t.Fatalf("page size %d: page %d word %d = %#x, want %#x", ps, pn, j, v, pattern(pn, j))
				}
			}
		}
	}
}
