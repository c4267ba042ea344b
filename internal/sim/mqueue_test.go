package sim

// The queue's barrier-delivery differential: messages handed over in
// batches through absorb, the way Group.flush delivers them, must pop in
// exactly the order of the reference queue (equeue_ref_test.go), which
// receives every message through a plain push. Same-shard Chan sends
// push; cross-shard batches absorb; this is the proof that the two
// paths cannot reorder delivery.

import "testing"

// msgDelays are the delays an op byte picks from: ties at small
// delays, a bucket's width, and both sides of the ring-span boundary
// and the far tier beyond it.
var msgDelays = [8]Time{0, 1, 2, 3, ringWidth, ringSpan - 1, ringSpan, 3 * ringSpan}

// runMsgQueueOps interprets ops as an operation stream: got receives
// batches through absorb, the reference receives every message through
// push. Single pushes, pops and peeks go to both, so they land right
// after absorbs. Per op byte b, by b&3:
//
//	0: absorb a batch of b>>2 messages (0 = an empty batch); each
//	   message's fields come from the next op byte
//	1: push one message, its fields from the next op byte
//	2: pop both and compare; the clock takes the message's time and
//	   the ring advances to it, as in runWindow
//	3: peek both and compare
//
// A message byte m carries at = now + msgDelays[m&7] and channel
// m>>3&3; per-channel sequence numbers keep every key unique, as Chan
// does.
func runMsgQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	got, want := newMsgQueue(), &refQueue{}
	var now Time
	var seq [4]uint64
	msg := func(m byte) eqEnt {
		ch := uint64(m >> 3 & 3)
		seq[ch]++
		return eqEnt{at: now + msgDelays[m&7], key: ch<<msgSeqBits | seq[ch]}
	}
	same := func(op int, what string, a, b eqEnt) {
		if a.at != b.at || a.key != b.key {
			t.Fatalf("op %d: %s diverged: absorb (at=%d key=%#x) vs reference (at=%d key=%#x)",
				op, what, a.at, a.key, b.at, b.key)
		}
	}
	pop := func(op int, what string) {
		m, _ := want.peek()
		now = m.at
		got.advance(now)
		same(op, what, got.pop(), want.pop())
	}
	for i := 0; i < len(ops); i++ {
		op := i
		switch b := ops[i]; b & 3 {
		case 0:
			var batch []eqEnt
			for n := int(b >> 2); n > 0 && i+1 < len(ops); n-- {
				i++
				m := msg(ops[i])
				batch = append(batch, m)
				want.push(m)
			}
			got.absorb(batch)
		case 1:
			if i+1 < len(ops) {
				i++
				m := msg(ops[i])
				got.push(m)
				want.push(m)
			}
		case 2:
			if want.len() > 0 {
				pop(op, "pop")
			}
		case 3:
			a, oka := got.peek()
			b, okb := want.peek()
			if oka != okb {
				t.Fatalf("op %d: peek ok %v vs %v", op, oka, okb)
			}
			same(op, "peek", a, b)
		}
		if got.len() != want.len() {
			t.Fatalf("op %d: len %d vs %d", op, got.len(), want.len())
		}
	}
	for i := 0; want.len() > 0; i++ {
		pop(len(ops)+i, "drain")
	}
	if got.len() != 0 {
		t.Fatalf("absorbing queue still holds %d messages", got.len())
	}
}

// TestMsgQueueAbsorbMatchesPush runs seeded random operation streams:
// batches of up to 63 messages dense with equal timestamps and reaching
// into the far tier, empty batches, runs of absorbs, and pushes, pops
// and peeks right after an absorb.
func TestMsgQueueAbsorbMatchesPush(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := NewRNG(seed)
		ops := make([]byte, 4000)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runMsgQueueOps(t, ops)
	}
}

// FuzzMsgQueue lets the fuzzer hunt for an operation stream where the
// absorbing queue and the reference pop in different orders.
func FuzzMsgQueue(f *testing.F) {
	f.Add([]byte{0x0c, 0x01, 0x09, 0x02, 0x00, 0x08, 0x0a, 0x11, 0x04, 0x03, 0x02, 0x02})
	f.Add([]byte{0x10, 0x00, 0x00, 0x08, 0x08, 0x00, 0x14, 0x07, 0x0f, 0x01, 0x01, 0x00, 0x03, 0x02, 0x02, 0x02})
	f.Fuzz(runMsgQueueOps)
}
