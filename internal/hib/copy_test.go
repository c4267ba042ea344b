package hib

import (
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// postCopy issues a raw copy request from node 0's HIB.
func postCopy(r *rig, src, dst addrspace.GAddr, words int) {
	r.eng.Spawn("copy", func(p *sim.Proc) {
		r.h[0].AddOutstanding(1)
		r.h[0].Post(&packet.Packet{
			Type:   packet.CopyReq,
			Dst:    src.Node(),
			Addr:   src,
			Addr2:  dst,
			Origin: 0,
			Len:    uint32(words),
		})
		r.h[0].Fence(p)
	})
}

func TestCopyChunkBoundaries(t *testing.T) {
	// Word counts around the DMA burst size must all copy exactly.
	for _, words := range []int{1, copyChunkWords - 1, copyChunkWords, copyChunkWords + 1, 3 * copyChunkWords} {
		r := newRig(t, nil)
		for i := 0; i < words; i++ {
			r.mem[1].WriteWord(uint64(8*i), uint64(0xA000+i))
		}
		// Guard word just past the end must stay untouched.
		r.mem[1].WriteWord(uint64(8*words), 0xDEAD)
		postCopy(r, addrspace.NewGAddr(1, 0), addrspace.NewGAddr(0, 0x8000), words)
		r.run(t)
		for i := 0; i < words; i++ {
			if got := r.mem[0].ReadWord(uint64(0x8000 + 8*i)); got != uint64(0xA000+i) {
				t.Fatalf("words=%d: word %d = %#x", words, i, got)
			}
		}
		if got := r.mem[0].ReadWord(uint64(0x8000 + 8*words)); got != 0 {
			t.Fatalf("words=%d: copy overran by at least one word", words)
		}
	}
}

func TestCopyBandwidthScalesWithSize(t *testing.T) {
	// A page-sized copy must run at roughly link bandwidth: doubling the
	// size should roughly double the time (not quadruple, not constant).
	elapsed := func(words int) sim.Time {
		r := newRig(t, nil)
		postCopy(r, addrspace.NewGAddr(1, 0), addrspace.NewGAddr(0, 0x8000), words)
		start := r.eng.Now()
		r.run(t)
		return r.eng.Now() - start
	}
	t512 := elapsed(512)
	t1024 := elapsed(1024)
	ratio := float64(t1024) / float64(t512)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("1024/512-word copy time ratio = %.2f, want ≈ 2 (bandwidth-bound)", ratio)
	}
}

func TestConcurrentCopiesBothComplete(t *testing.T) {
	r := newRig(t, nil)
	for i := 0; i < 32; i++ {
		r.mem[1].WriteWord(uint64(8*i), uint64(100+i))
		r.mem[0].WriteWord(uint64(0x4000+8*i), uint64(200+i))
	}
	// Node 0 pulls from node 1 while node 1 pulls from node 0.
	r.eng.Spawn("c0", func(p *sim.Proc) {
		r.h[0].AddOutstanding(1)
		r.h[0].Post(&packet.Packet{
			Type: packet.CopyReq, Dst: 1,
			Addr:   addrspace.NewGAddr(1, 0),
			Addr2:  addrspace.NewGAddr(0, 0x8000),
			Origin: 0, Len: 32,
		})
		r.h[0].Fence(p)
	})
	r.eng.Spawn("c1", func(p *sim.Proc) {
		r.h[1].AddOutstanding(1)
		r.h[1].Post(&packet.Packet{
			Type: packet.CopyReq, Dst: 0,
			Addr:   addrspace.NewGAddr(0, 0x4000),
			Addr2:  addrspace.NewGAddr(1, 0x8000),
			Origin: 1, Len: 32,
		})
		r.h[1].Fence(p)
	})
	r.run(t)
	for i := 0; i < 32; i++ {
		if got := r.mem[0].ReadWord(uint64(0x8000 + 8*i)); got != uint64(100+i) {
			t.Fatalf("copy 0<-1 word %d = %d", i, got)
		}
		if got := r.mem[1].ReadWord(uint64(0x8000 + 8*i)); got != uint64(200+i) {
			t.Fatalf("copy 1<-0 word %d = %d", i, got)
		}
	}
}
