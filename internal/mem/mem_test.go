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

// TestOneWordTouchAllocatesOneLeaf: a write into a fresh memory
// materializes exactly one chunk holding exactly one 512 B leaf, and
// leaves the rest of a 2 MB node unallocated; a store of zero into
// fresh memory materializes nothing and allocates nothing.
func TestOneWordTouchAllocatesOneLeaf(t *testing.T) {
	m := New(2<<20, addrspace.DefaultPageSize)
	if len(m.chunks) != 256 {
		t.Fatalf("%d chunk slots for 2 MB, want 256", len(m.chunks))
	}
	off := uint64(3*addrspace.DefaultPageSize + 8*200) // word 200 of page 3: leaf 3
	m.WriteWord(off, 7)
	var chunks, leaves []int
	for i, c := range m.chunks {
		if c == nil {
			continue
		}
		chunks = append(chunks, i)
		for j, l := range c {
			if l != nil {
				leaves = append(leaves, j)
			}
		}
	}
	if len(chunks) != 1 || chunks[0] != 3 || len(leaves) != 1 || leaves[0] != 3 {
		t.Fatalf("chunks %v with leaves %v materialized, want chunk [3] with leaf [3]", chunks, leaves)
	}
	if m.ReadWord(off) != 7 {
		t.Fatal("word round trip failed")
	}

	fresh := New(2<<20, addrspace.DefaultPageSize)
	zero := uint64(5*addrspace.DefaultPageSize + 8)
	if a := testing.AllocsPerRun(100, func() { fresh.WriteWord(zero, 0) }); a != 0 {
		t.Fatalf("zero store into fresh memory: %v allocations, want 0", a)
	}
	for i, c := range fresh.chunks {
		if c != nil {
			t.Fatalf("zero store materialized chunk %d", i)
		}
	}
	// A zero store into a materialized leaf still clears the word.
	m.WriteWord(off, 0)
	if m.ReadWord(off) != 0 || m.Writes() != 2 {
		t.Fatalf("zero store over 7: read %d, %d writes", m.ReadWord(off), m.Writes())
	}
}

// TestWordAccessAllocs: word loads and stores allocate nothing once
// their leaf exists, and loads of unwritten memory never allocate.
func TestWordAccessAllocs(t *testing.T) {
	m := New(1<<20, addrspace.DefaultPageSize)
	m.WriteWord(64, 1)
	var v uint64
	a := testing.AllocsPerRun(100, func() {
		v++
		m.WriteWord(64+8*(v%64), v)
		v += m.ReadWord(64) + m.ReadWord(1<<19)
	})
	if a != 0 {
		t.Fatalf("%v allocations per word access, want 0", a)
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

// FuzzMemoryDifferential drives random word and page accesses, zero
// stores included, against a flat []uint64 reference at page sizes 4, 8
// and 16 KiB (smaller than, equal to and larger than a chunk): every
// read must match the reference, and so must the Reads/Writes counts.
func FuzzMemoryDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 2, 0x40, 0, 0, 3, 7, 0x10, 2, 0, 0x81, 2, 3, 0xc0, 0xff, 0xff, 1})
	f.Add([]byte{2, 1, 0, 0, 3, 1, 0, 0, 0, 0x80, 0, 1, 0, 0, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const size = 64 << 10
		for _, ps := range []int{4 << 10, 8 << 10, 16 << 10} {
			m := New(size, ps)
			ref := make([]uint64, size/addrspace.WordSize)
			wpp := ps / addrspace.WordSize
			var reads, writes int64
			in := prog
			next := func() byte {
				if len(in) == 0 {
					return 0
				}
				b := in[0]
				in = in[1:]
				return b
			}
			for len(in) > 0 {
				op := next()
				word := (int(next())<<8 | int(next())) % len(ref)
				// Values: zero half the time, else a small or a wide one.
				var v uint64
				switch vb := next(); {
				case vb&1 == 0:
				case vb&2 == 0:
					v = uint64(vb >> 2)
				default:
					v = uint64(vb)<<56 | uint64(word)
				}
				pn := addrspace.PageNum(word / wpp)
				switch op % 4 {
				case 0:
					m.WriteWord(uint64(word*addrspace.WordSize), v)
					ref[word] = v
					writes++
				case 1:
					if got := m.ReadWord(uint64(word * addrspace.WordSize)); got != ref[word] {
						t.Fatalf("page size %d: word %d = %#x, want %#x", ps, word, got, ref[word])
					}
					reads++
				case 2:
					// Every other word of the page gets v, the rest zero,
					// so page writes clear as well as set.
					data := make([]uint64, wpp)
					for j := range data {
						if j%2 == int(op>>2)%2 {
							data[j] = v + uint64(j)*uint64(op>>3)
						}
					}
					m.WritePage(pn, data)
					copy(ref[int(pn)*wpp:], data)
					writes += int64(wpp)
				case 3:
					got := m.ReadPage(pn)
					for j, w := range got {
						if w != ref[int(pn)*wpp+j] {
							t.Fatalf("page size %d: page %d word %d = %#x, want %#x", ps, pn, j, w, ref[int(pn)*wpp+j])
						}
					}
					reads += int64(wpp)
				}
			}
			for i, w := range ref {
				if got := m.ReadWord(uint64(i * addrspace.WordSize)); got != w {
					t.Fatalf("page size %d: final word %d = %#x, want %#x", ps, i, got, w)
				}
			}
			reads += int64(len(ref))
			if m.Reads() != reads || m.Writes() != writes {
				t.Fatalf("page size %d: counters %d/%d, want %d/%d", ps, m.Reads(), m.Writes(), reads, writes)
			}
		}
	})
}
