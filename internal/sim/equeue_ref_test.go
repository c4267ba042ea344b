package sim

// The queue's differential oracle: a container/heap-backed reference
// queue, plus tests that drive it and the ring (msgQueue) with identical
// operation sequences — random, adversarial ties, cancel-heavy, across
// the ring-span boundary, the occupancy bitmap's word boundaries and
// many ring laps, with far-tier pushes in and out of order — and demand
// the identical pop order, including (at, key) tie-breaks and
// post-compaction order.

import (
	"container/heap"
	"sort"
	"testing"
)

// refEntries adapts []eqEnt to container/heap.
type refEntries []eqEnt

func (h refEntries) Len() int            { return len(h) }
func (h refEntries) Less(i, j int) bool  { return msgBefore(h[i], h[j]) }
func (h refEntries) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refEntries) Push(x interface{}) { *h = append(*h, x.(eqEnt)) }
func (h *refEntries) Pop() interface{} {
	old := *h
	n := len(old) - 1
	e := old[n]
	old[n] = eqEnt{}
	*h = old[:n]
	return e
}

// refQueue is the reference queue: correct by construction via the
// standard library's binary heap.
type refQueue struct {
	h refEntries
}

func (q *refQueue) push(e eqEnt) { heap.Push(&q.h, e) }
func (q *refQueue) pop() eqEnt   { return heap.Pop(&q.h).(eqEnt) }
func (q *refQueue) peek() (eqEnt, bool) {
	if len(q.h) == 0 {
		return eqEnt{}, false
	}
	return q.h[0], true
}
func (q *refQueue) len() int { return len(q.h) }

// remove takes out the event whose slot is s and reports whether it was
// there.
func (q *refQueue) remove(s *eventSlot) bool {
	for i, e := range q.h {
		if e.slot == s {
			heap.Remove(&q.h, i)
			return true
		}
	}
	return false
}

// compact mirrors msgQueue.compact but hands each dead slot to free
// without touching it. The differentials compact the reference first:
// the ring recycles dead slots into a pool, which clears the canceled
// flag both queues read from their shared slots.
func (q *refQueue) compact(free func(*eventSlot)) {
	live := q.h[:0]
	for _, e := range q.h {
		if e.slot != nil && e.slot.canceled {
			free(e.slot)
		} else {
			live = append(live, e)
		}
	}
	clear(q.h[len(live):])
	q.h = live
	heap.Init(&q.h)
}

// sameEnt compares two entries by key (at, key) and slot identity; the
// callback is not comparable and is never read by the queue.
func sameEnt(a, b eqEnt) bool { return a.at == b.at && a.key == b.key && a.slot == b.slot }

// queuePair drives the ring and the reference through the operations
// the engine performs on its queue and fails on the first divergence.
// now is the simulated clock: pushes land at or after it, and only a
// step moves the ring, the way runWindow does.
type queuePair struct {
	t     *testing.T
	q     msgQueue
	ref   refQueue
	now   Time
	seq   uint64
	chSeq [4]uint64
	slots []*eventSlot        // every event pushed, for cancel
	dead  map[*eventSlot]bool // every event canceled
	pool  eventPool           // receives the slots advance drops
}

func newQueuePair(t *testing.T) *queuePair {
	return &queuePair{t: t, q: newMsgQueue(), dead: map[*eventSlot]bool{}}
}

func (p *queuePair) push(e eqEnt) {
	p.q.push(e)
	p.ref.push(e)
}

// event pushes an event at absolute time at (clamped to now, as
// Engine.At does).
func (p *queuePair) event(at Time) {
	if at < p.now {
		at = p.now
	}
	p.seq++
	s := &eventSlot{}
	p.slots = append(p.slots, s)
	p.push(eqEnt{at: at, key: eventKey | p.seq, slot: s})
}

// msg pushes a message on channel ch at absolute time at (clamped to
// now).
func (p *queuePair) msg(at Time, ch int) {
	if at < p.now {
		at = p.now
	}
	p.chSeq[ch]++
	p.push(eqEnt{at: at, key: uint64(ch)<<msgSeqBits | p.chSeq[ch]})
}

// head discards canceled heads from both queues, as Engine.peekEvent
// does (without moving the ring), and returns the live head.
func (p *queuePair) head() (eqEnt, bool) {
	p.t.Helper()
	for {
		a, oka := p.q.peek()
		b, okb := p.ref.peek()
		if oka != okb || (oka && !sameEnt(a, b)) {
			p.t.Fatalf("now=%d: peek diverged: ring (at=%d key=%#x ok=%v) vs ref (at=%d key=%#x ok=%v)",
				p.now, a.at, a.key, oka, b.at, b.key, okb)
		}
		if p.q.len() != p.ref.len() {
			p.t.Fatalf("now=%d: len %d vs %d", p.now, p.q.len(), p.ref.len())
		}
		if !oka || a.slot == nil || !a.slot.canceled {
			return a, oka
		}
		if x, y := p.q.pop(), p.ref.pop(); !sameEnt(x, y) || !sameEnt(x, a) {
			p.t.Fatalf("now=%d: discard diverged from peek", p.now)
		}
	}
}

// step runs the next live entry the way runWindow does: the clock takes
// its time, the ring advances to it, and both queues pop it.
//
// advance drops the canceled events that leave the far tier and
// recycles their slots, which clears the canceled flag the reference
// reads from the same slot. So the reference drops exactly those
// events too, each of which must have been canceled, and len compares
// the two queues again at the next head.
func (p *queuePair) step() bool {
	p.t.Helper()
	a, ok := p.head()
	if !ok {
		return false
	}
	if a.at < p.now {
		p.t.Fatalf("entry at %d popped behind now=%d", a.at, p.now)
	}
	p.now = a.at
	p.pool.free = p.pool.free[:0]
	if n := p.q.advance(p.now, &p.pool); n != len(p.pool.free) {
		p.t.Fatalf("now=%d: advance reported %d drops, recycled %d slots", p.now, n, len(p.pool.free))
	}
	for _, s := range p.pool.free {
		if !p.dead[s] {
			p.t.Fatalf("now=%d: advance dropped a live event", p.now)
		}
		if !p.ref.remove(s) {
			p.t.Fatalf("now=%d: advance dropped an event the reference does not hold", p.now)
		}
	}
	if x, y := p.q.pop(), p.ref.pop(); !sameEnt(x, a) || !sameEnt(y, a) {
		p.t.Fatalf("now=%d: pop diverged: ring (at=%d key=%#x) vs ref (at=%d key=%#x), peeked (at=%d key=%#x)",
			p.now, x.at, x.key, y.at, y.key, a.at, a.key)
	}
	return true
}

// jump runs every entry at or before t and then sets the clock to t
// without moving the ring, as a RunUntil deadline or the group's clock
// sync does.
func (p *queuePair) jump(t Time) {
	p.t.Helper()
	for {
		a, ok := p.head()
		if !ok || a.at > t {
			break
		}
		p.step()
	}
	if t > p.now {
		p.now = t
	}
}

// cancel marks the event pushed i events before the latest canceled;
// an event that already left the queue is unaffected.
func (p *queuePair) cancel(i int) {
	if n := len(p.slots); n > 0 {
		s := p.slots[n-1-i%n]
		s.canceled = true
		p.dead[s] = true
	}
}

// compact compacts both queues; the freed slots must match as sets.
func (p *queuePair) compact() {
	p.t.Helper()
	freed := map[*eventSlot]bool{}
	p.ref.compact(func(s *eventSlot) { freed[s] = true })
	var pool eventPool
	p.q.compact(&pool)
	if len(pool.free) != len(freed) {
		p.t.Fatalf("now=%d: compact freed %d vs %d slots", p.now, len(pool.free), len(freed))
	}
	for _, s := range pool.free {
		if !freed[s] {
			p.t.Fatalf("now=%d: compact freed different slot sets", p.now)
		}
	}
}

// drain pops both queues dry.
func (p *queuePair) drain() {
	p.t.Helper()
	for p.step() {
	}
	if p.q.len() != 0 || p.ref.len() != 0 {
		p.t.Fatalf("drained queues still hold %d and %d entries", p.q.len(), p.ref.len())
	}
}

// runQueueOps interprets ops as an operation stream against a
// queuePair. Per op byte b, by b&7, with v = b>>3:
//
//	0, 1: push an event v&15 ns after now (ties are common)
//	2:    push a message on channel v&3, (v>>2)&7 ns after now
//	3:    push an event (v even) or a message exactly at, one before or
//	      one after a boundary: for u = v>>1, u%5 < 4 picks the u%5-th
//	      occupancy-word boundary at or after cur (bucket 0, 64, 128 or
//	      192 of the ring), u%5 == 4 the ring-span boundary cur+ringSpan;
//	      (u/5)%3 picks one before, at or one after
//	4:    push a far-tier event 1 to 4 spans after now (in the far run
//	      when no later far push came before it, else in its heap)
//	5:    step: run the next entry
//	6:    compact (v == 0) or cancel the event pushed v before the latest
//	7:    clock jump of v quarter spans (v = 0: run what is due now)
func runQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	p := newQueuePair(t)
	for _, b := range ops {
		v := Time(b >> 3)
		switch b & 7 {
		case 0, 1:
			p.event(p.now + v&15)
		case 2:
			p.msg(p.now+(v>>2)&7, int(v&3))
		case 3:
			u := v >> 1
			at := p.q.cur + ringSpan
			if k := u % 5; k < 4 {
				const word = 64 * ringWidth
				at = (p.q.cur+word-1)/word*word + k*word
			}
			at += (u/5)%3 - 1
			if v%2 == 0 {
				p.event(at)
			} else {
				p.msg(at, int(v&3))
			}
		case 4:
			p.event(p.now + ringSpan*(1+v&3) + v>>2)
		case 5:
			p.step()
		case 6:
			if v == 0 {
				p.compact()
			} else {
				p.cancel(int(v))
			}
		case 7:
			p.jump(p.now + v*ringSpan/4)
		}
	}
	p.drain()
}

// TestEventQueueDifferentialTable drives the ring and the reference
// through fixed adversarial schedules: events at whens, messages at
// msgs on three channels, all pushed at time zero and then drained the
// way runWindow drains.
func TestEventQueueDifferentialTable(t *testing.T) {
	const s, w = ringSpan, ringWidth
	cases := []struct {
		name  string
		whens []Time
		msgs  []Time
	}{
		{"ascending", []Time{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, nil},
		{"descending", []Time{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, nil},
		{"all-equal", []Time{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, nil},
		{"tie-pairs", []Time{3, 3, 1, 1, 2, 2, 3, 3, 1, 1, 0, 0}, nil},
		{"sawtooth", []Time{0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 0, 5, 1, 6}, nil},
		{"single", []Time{42}, nil},
		{"plateau-then-spike", []Time{7, 7, 7, 7, 7, 7, 7, 7, 100, 0}, nil},
		{"span-boundary", []Time{s, s - 1, s + 1, 0, s, s - w, s + w, 2*s - 1, 2 * s}, []Time{s, s - 1, s + 1}},
		{"far-interleaved", []Time{0, 3 * s, 5, 10*s + 7, s / 2, 3 * s, 9 * s, 1, 10*s + 7}, []Time{3 * s, 2, 9*s + 1}},
		{"wrap-around", []Time{0, s + 1, 2*s + 2, 3*s + 3, 4*s + 4, 5*s + 5, 6*s + 6, 7*s + 7, 8*s + 8, w - 1}, []Time{4*s + 4, 8*s + 8}},
		{"same-instant-mix", []Time{9, 9, 9, 3, 9, 3}, []Time{9, 3, 9, 9, 3, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newQueuePair(t)
			for i, at := range tc.whens {
				p.event(at)
				if i < len(tc.msgs) {
					p.msg(tc.msgs[i], i%3)
				}
			}
			p.drain()
		})
	}
}

// TestEventQueueDifferentialRandom runs seeded random operation streams
// (see runQueueOps): pushes dense with ties, same-instant mixes of
// messages and events, entries at the span boundary and in the far
// tier, cancels, compactions with dead entries in both tiers, and clock
// jumps, over many ring laps.
func TestEventQueueDifferentialRandom(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := NewRNG(seed)
		ops := make([]byte, 4000)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runQueueOps(t, ops)
	}
}

// queueOp encodes one runQueueOps operation: op with argument v.
func queueOp(op, v int) byte { return byte(v<<3 | op) }

// boundaryOp encodes op 3: an event, or a message if msg, at off-1 ns
// (off 0..2) around boundary k: 0..3 the occupancy-word boundaries at
// or after cur, 4 the ring-span boundary.
func boundaryOp(k, off int, msg bool) byte {
	v := (k + 5*off) << 1
	if msg {
		v |= 1
	}
	return queueOp(3, v)
}

// queueEdgeStreams are fixed runQueueOps streams aimed at the
// occupancy bitmap and the far run:
//
//   - words: a compact first empties the bucket at scan, so seek steps
//     to the next one, a word away. Then each lap fills the buckets on
//     both sides of every occupancy-word boundary (63/64, 127/128,
//     191/192) and of the span boundary, cancels some (one lap
//     compacts), and runs part of it; the jump between laps puts the
//     next lap's boundaries across the ring's 255→0 wrap, and each pop
//     that empties a bucket searches the bitmap across words;
//   - far: far pushes in order (the run) and out of order (the heap),
//     canceled and not, compacted once, drained by jumps that carry
//     them into the ring and drop the canceled ones on the way.
func queueEdgeStreams() map[string][]byte {
	words := []byte{queueOp(0, 0), boundaryOp(1, 1, false), queueOp(6, 1), queueOp(6, 0), queueOp(5, 0)}
	for lap := 0; lap < 4; lap++ {
		for k := 0; k < 5; k++ {
			for off := 0; off < 3; off++ {
				words = append(words, boundaryOp(k, off, (k+off+lap)%2 == 1))
			}
		}
		words = append(words, queueOp(6, 2), queueOp(6, 5), queueOp(6, 14))
		if lap == 2 {
			words = append(words, queueOp(6, 0)) // compact
		}
		for i := 0; i < 5+lap; i++ {
			words = append(words, queueOp(5, 0))
		}
		// Jump 3/4 of a span and move the ring to the clock.
		words = append(words, queueOp(7, 3), queueOp(0, 0), queueOp(5, 0))
	}
	var far []byte
	for round := 0; round < 3; round++ {
		far = append(far,
			queueOp(4, 0), queueOp(4, 1), queueOp(4, 2), queueOp(4, 3), // in order
			queueOp(4, 1), queueOp(4, 2|4<<2), queueOp(4, 0|7<<2), // out of order
			queueOp(4, 3|7<<2), queueOp(0, 5), // in order again
			queueOp(6, 1), queueOp(6, 3), queueOp(6, 6), // cancel far entries
		)
		if round == 1 {
			far = append(far, queueOp(6, 0)) // compact both far parts
		}
		far = append(far, queueOp(7, 5), queueOp(4, 2), queueOp(6, 1), queueOp(7, 6), queueOp(5, 0))
	}
	return map[string][]byte{"words": words, "far": far}
}

// TestEventQueueDifferentialEdges runs queueEdgeStreams.
func TestEventQueueDifferentialEdges(t *testing.T) {
	for name, ops := range queueEdgeStreams() {
		t.Run(name, func(t *testing.T) { runQueueOps(t, ops) })
	}
}

// FuzzEventQueueDifferential lets the fuzzer hunt for an operation
// stream (see runQueueOps) where the ring and the reference diverge.
func FuzzEventQueueDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x42, 0x03, 0x64, 0x05, 0x86, 0xa7})
	f.Add([]byte{0x10, 0x10, 0x10, 0x10, 0x04, 0x04, 0x04, 0x04})
	f.Add([]byte{0x0c, 0x23, 0x1b, 0x08, 0x05, 0x3e, 0x06, 0x17, 0x05, 0x05, 0x3f, 0x01, 0x05})
	f.Add(queueEdgeStreams()["words"])
	f.Add(queueEdgeStreams()["far"])
	f.Fuzz(runQueueOps)
}

// TestEngineOnRefQueue checks the live engine's firing order against an
// independent oracle: events fire in (delay, schedule order) ascending,
// which is the scheduled (delay, index) pairs stable-sorted by delay.
// Delays come from a tiny range, so most events tie with others.
func TestEngineOnRefQueue(t *testing.T) {
	e := NewEngine(7)
	rng := NewRNG(99)
	delays := make([]Time, 200)
	var fired []int
	for i := range delays {
		delays[i] = Time(rng.Intn(16))
		e.Schedule(delays[i], func() { fired = append(fired, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := make([]int, len(delays))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return delays[want[a]] < delays[want[b]] })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order diverged at %d: event %d fired, oracle says %d", i, fired[i], want[i])
		}
	}
}
