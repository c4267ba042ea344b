// Package mem models a node's physical memory: a flat, word-addressed
// store with page-granularity helpers. In Telegraphos I this backs the
// Multiprocessor Memory (MPM) on the HIB board; in Telegraphos II it backs
// the shared portion of main memory (§2.2.1). Timing is accounted by the
// callers (CPU, HIB) so the same store can sit behind either access path.
package mem

import (
	"fmt"

	"telegraphos/internal/addrspace"
)

// Node memory is a two-level sparse tree. The top index holds one
// chunk pointer per chunkWords words (8 KiB of address space, one
// default page, addrspace.DefaultPageSize); a chunk holds chunkLeaves
// leaf pointers, and a leaf holds leafWords words (512 B). A fresh
// Memory allocates only the top index: chunks and leaves materialize on
// the first nonzero store into them, and unwritten words read as zero,
// so building a large cluster costs neither the allocation nor the
// zeroing of memory the workload never touches, a one-word touch costs
// one chunk and one leaf, and a store of zero into a missing leaf
// materializes nothing. The sizes stay constants so that load and store
// index by shift and mask; the page size is independent of them.
const (
	leafShift   = 6
	leafWords   = 1 << leafShift // 64 words, 512 B
	chunkShift  = leafShift + 4
	chunkLeaves = 1 << (chunkShift - leafShift) // 16 leaves
	chunkWords  = 1 << chunkShift               // 1 024 words, 8 KiB
)

type (
	leaf  [leafWords]uint64
	chunk [chunkLeaves]*leaf
)

// Memory is a node-local physical memory of a fixed byte size.
type Memory struct {
	sizeWords int
	chunks    []*chunk
	pageSize  int

	reads  int64
	writes int64
}

// New returns a zeroed memory of size bytes with the given page size.
// Size and pageSize must be positive multiples of the word size.
func New(size, pageSize int) *Memory {
	if size <= 0 || size%addrspace.WordSize != 0 {
		panic(fmt.Sprintf("mem: invalid size %d", size))
	}
	if pageSize <= 0 || pageSize%addrspace.WordSize != 0 || size%pageSize != 0 {
		panic(fmt.Sprintf("mem: invalid page size %d", pageSize))
	}
	sizeWords := size / addrspace.WordSize
	return &Memory{
		sizeWords: sizeWords,
		chunks:    make([]*chunk, (sizeWords+chunkWords-1)/chunkWords),
		pageSize:  pageSize,
	}
}

// Size reports the memory size in bytes.
func (m *Memory) Size() int { return m.sizeWords * addrspace.WordSize }

// PageSize reports the page size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// NumPages reports the number of pages.
func (m *Memory) NumPages() int { return m.Size() / m.pageSize }

// WordsPerPage reports the number of words in one page.
func (m *Memory) WordsPerPage() int { return m.pageSize / addrspace.WordSize }

func (m *Memory) index(off uint64) int {
	if off%addrspace.WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned word access at %#x", off))
	}
	i := int(off / addrspace.WordSize)
	if i < 0 || i >= m.sizeWords {
		panic(fmt.Sprintf("mem: access at %#x beyond size %#x", off, m.Size()))
	}
	return i
}

func (m *Memory) load(i int) uint64 {
	c := m.chunks[i>>chunkShift]
	if c == nil {
		return 0
	}
	l := c[i>>leafShift&(chunkLeaves-1)]
	if l == nil {
		return 0
	}
	return l[i&(leafWords-1)]
}

func (m *Memory) store(i int, v uint64) {
	c := m.chunks[i>>chunkShift]
	if c == nil {
		if v == 0 {
			return
		}
		c = new(chunk)
		m.chunks[i>>chunkShift] = c
	}
	l := &c[i>>leafShift&(chunkLeaves-1)]
	if *l == nil {
		if v == 0 {
			return
		}
		*l = new(leaf)
	}
	(*l)[i&(leafWords-1)] = v
}

// ReadWord returns the word at byte offset off. It panics on unaligned or
// out-of-range access: those are simulation bugs, not program errors.
func (m *Memory) ReadWord(off uint64) uint64 {
	m.reads++
	return m.load(m.index(off))
}

// WriteWord stores v at byte offset off.
func (m *Memory) WriteWord(off uint64, v uint64) {
	m.writes++
	m.store(m.index(off), v)
}

// ReadPage copies page pn into a fresh slice of words.
func (m *Memory) ReadPage(pn addrspace.PageNum) []uint64 {
	base := m.index(addrspace.PageBase(pn, m.pageSize))
	out := make([]uint64, m.WordsPerPage())
	for j := range out {
		out[j] = m.load(base + j)
	}
	m.reads += int64(m.WordsPerPage())
	return out
}

// WritePage overwrites page pn with data (which must be exactly one page
// of words).
func (m *Memory) WritePage(pn addrspace.PageNum, data []uint64) {
	if len(data) != m.WordsPerPage() {
		panic(fmt.Sprintf("mem: WritePage with %d words, want %d", len(data), m.WordsPerPage()))
	}
	base := m.index(addrspace.PageBase(pn, m.pageSize))
	for j, v := range data {
		m.store(base+j, v)
	}
	m.writes += int64(m.WordsPerPage())
}

// Reads reports the cumulative word-read count (telemetry).
func (m *Memory) Reads() int64 { return m.reads }

// Writes reports the cumulative word-write count (telemetry).
func (m *Memory) Writes() int64 { return m.writes }
