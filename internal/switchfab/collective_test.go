package switchfab

import (
	"encoding/binary"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
)

// fais returns one combinable fetch-and-add per addend, each from its
// own source, as a combine window holds them.
func fais(addends []uint64) []*packet.Packet {
	pkts := make([]*packet.Packet, len(addends))
	for i, a := range addends {
		pkts[i] = &packet.Packet{Type: packet.CombAddReq, Src: addrspace.NodeID(i), ReqID: uint64(100 + i), Val: a}
	}
	return pkts
}

// TestMergeSet pins flush's merge arithmetic: prefix-sum offsets in
// arrival order, one combined addend, and decombine's replies.
func TestMergeSet(t *testing.T) {
	addends := []uint64{1, 1, 3, 0, 7}
	m, sum := merge(fais(addends))
	if sum != 12 {
		t.Errorf("sum = %d, want 12", sum)
	}
	wantOff := []uint64{0, 1, 2, 5, 5}
	want := []uint64{100, 101, 102, 105, 105}
	for i, c := range m.cons {
		if c.offset != wantOff[i] || c.src != addrspace.NodeID(i) || c.reqID != uint64(100+i) {
			t.Errorf("constituent %d = %+v, want offset %d, src %d, reqID %d", i, c, wantOff[i], i, 100+i)
		}
		if got := c.reply(100); got != want[i] {
			t.Errorf("constituent %d: reply(100) = %d, want %d", i, got, want[i])
		}
	}
}

func TestMergeSetEmpty(t *testing.T) {
	if m, sum := merge(nil); sum != 0 || len(m.cons) != 0 {
		t.Error("empty merge must carry no constituents")
	}
}

// FuzzMergeSplit checks the combining soundness property: merging k
// fetch&add requests into one and splitting the single reply must hand
// every constituent exactly the pre-value it would have fetched had the
// k requests been applied sequentially, in merge order, at the home.
func FuzzMergeSplit(f *testing.F) {
	f.Add(uint64(7), []byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(0), []byte{5})
	f.Add(^uint64(0), []byte{255, 255, 255, 255, 255, 255, 255, 255, 3})
	f.Fuzz(func(t *testing.T, base uint64, raw []byte) {
		var addends []uint64
		for len(raw) >= 8 && len(addends) < 64 {
			addends = append(addends, binary.LittleEndian.Uint64(raw[:8]))
			raw = raw[8:]
		}
		if len(raw) > 0 && len(addends) < 64 {
			addends = append(addends, uint64(raw[0]))
		}
		m, sum := merge(fais(addends))
		// Sequential reference: apply the same FAAs one at a time.
		counter := base
		var seq []uint64
		for _, a := range addends {
			seq = append(seq, counter)
			counter += a
		}
		if base+sum != counter {
			t.Fatalf("merged sum: home ends at %d, sequential at %d", base+sum, counter)
		}
		if len(m.cons) != len(seq) {
			t.Fatalf("merge recorded %d constituents for %d requests", len(m.cons), len(seq))
		}
		for i, c := range m.cons {
			if got := c.reply(base); got != seq[i] {
				t.Fatalf("constituent %d: merged reply %d, sequential %d (addends %v, base %d)",
					i, got, seq[i], addends, base)
			}
		}
	})
}
