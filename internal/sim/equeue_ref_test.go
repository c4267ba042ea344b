package sim

// The queue's differential oracle: a container/heap-backed reference
// queue, plus tests that drive it and the ring (msgQueue) with identical
// operation sequences — random, adversarial ties, cancel-heavy, across
// the ring-span boundary and many ring laps — and demand the identical
// pop order, including (at, key) tie-breaks and post-compaction order.

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
	slots []*eventSlot // every event pushed, for cancel
}

func newQueuePair(t *testing.T) *queuePair {
	return &queuePair{t: t, q: newMsgQueue()}
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
	s := &eventSlot{when: at}
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
	p.q.advance(p.now)
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
		p.slots[n-1-i%n].canceled = true
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
//	      one after the ring-span boundary cur+ringSpan
//	4:    push a far-tier event 1 to 4 spans after now
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
			at := p.q.cur + ringSpan + v%3 - 1
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

// FuzzEventQueueDifferential lets the fuzzer hunt for an operation
// stream (see runQueueOps) where the ring and the reference diverge.
func FuzzEventQueueDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x42, 0x03, 0x64, 0x05, 0x86, 0xa7})
	f.Add([]byte{0x10, 0x10, 0x10, 0x10, 0x04, 0x04, 0x04, 0x04})
	f.Add([]byte{0x0c, 0x23, 0x1b, 0x08, 0x05, 0x3e, 0x06, 0x17, 0x05, 0x05, 0x3f, 0x01, 0x05})
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
