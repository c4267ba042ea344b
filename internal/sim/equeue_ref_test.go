package sim

// The event queue's differential oracle: a container/heap-backed
// reference event queue, plus tests that drive it and heap4 with
// identical operation sequences — random, adversarial ties,
// cancel-heavy — and demand the identical pop order, including
// (when, seq) tie-breaks and post-compaction order.

import (
	"container/heap"
	"sort"
	"testing"
)

// refEntries adapts []eqEnt to container/heap.
type refEntries []eqEnt

func (h refEntries) Len() int            { return len(h) }
func (h refEntries) Less(i, j int) bool  { return h[i].before(h[j]) }
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

// refQueue is the reference event queue: correct by construction via the
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

// compact mirrors heap4.compact but hands each dead slot to free without
// touching it. The differentials compact the reference first: heap4
// recycles dead slots into a pool, which clears the canceled flag both
// queues read from their shared slots.
func (q *refQueue) compact(free func(*eventSlot)) {
	live := q.h[:0]
	for _, e := range q.h {
		if e.slot.canceled {
			free(e.slot)
		} else {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(q.h); i++ {
		q.h[i] = eqEnt{}
	}
	q.h = live
	heap.Init(&q.h)
}

// drainEqual pops both queues dry and fails on the first divergence.
// Entries are compared by key (when, seq) and slot identity.
func drainEqual(t *testing.T, name string, a *heap4, b *refQueue) {
	t.Helper()
	if a.len() != b.len() {
		t.Fatalf("%s: len %d vs %d", name, a.len(), b.len())
	}
	for i := 0; a.len() > 0; i++ {
		pa, oka := a.peek()
		pb, okb := b.peek()
		if !oka || !okb {
			t.Fatalf("%s: pop %d: peek ok %v vs %v", name, i, oka, okb)
		}
		ea, eb := a.pop(), b.pop()
		if pa != ea || pb != eb {
			t.Fatalf("%s: pop %d: peek/pop mismatch", name, i)
		}
		if ea.when != eb.when || ea.seq != eb.seq || ea.slot != eb.slot {
			t.Fatalf("%s: pop %d diverged: heap4 (when=%d seq=%d) vs ref (when=%d seq=%d)",
				name, i, ea.when, ea.seq, eb.when, eb.seq)
		}
	}
	if b.len() != 0 {
		t.Fatalf("%s: ref queue still holds %d entries", name, b.len())
	}
}

// TestEventQueueDifferentialTable drives both implementations through
// fixed adversarial schedules.
func TestEventQueueDifferentialTable(t *testing.T) {
	cases := []struct {
		name  string
		whens []Time
	}{
		{"ascending", []Time{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"descending", []Time{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}},
		{"all-equal", []Time{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}},
		{"tie-pairs", []Time{3, 3, 1, 1, 2, 2, 3, 3, 1, 1, 0, 0}},
		{"sawtooth", []Time{0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 0, 5, 1, 6}},
		{"single", []Time{42}},
		{"plateau-then-spike", []Time{7, 7, 7, 7, 7, 7, 7, 7, 100, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h4, ref := newHeap4(), &refQueue{}
			slots := make([]eventSlot, len(tc.whens))
			for i, w := range tc.whens {
				e := eqEnt{when: w, seq: uint64(i + 1), slot: &slots[i]}
				h4.push(e)
				ref.push(e)
			}
			drainEqual(t, tc.name, h4, ref)
		})
	}
}

// TestEventQueueDifferentialRandom fuzzes interleaved push/pop/cancel/
// compact sequences from seeded streams. Ties are frequent by
// construction (times drawn from a tiny range), so the seq tie-break is
// exercised constantly; cancels mark slots dead and compact must leave
// both queues popping the identical survivors.
func TestEventQueueDifferentialRandom(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := NewRNG(seed)
		h4, ref := newHeap4(), &refQueue{}
		var seq uint64
		var live []eqEnt // entries pushed and not yet popped or canceled
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // push, times from a tiny range to force ties
				seq++
				e := eqEnt{when: Time(rng.Intn(8)), seq: seq, slot: &eventSlot{}}
				h4.push(e)
				ref.push(e)
				live = append(live, e)
			case r < 8: // pop (skipping canceled heads like the engine does)
				for h4.len() > 0 {
					ea, eb := h4.pop(), ref.pop()
					if ea.when != eb.when || ea.seq != eb.seq || ea.slot != eb.slot {
						t.Fatalf("seed %d op %d: pop diverged: (when=%d seq=%d) vs (when=%d seq=%d)",
							seed, op, ea.when, ea.seq, eb.when, eb.seq)
					}
					if !ea.slot.canceled {
						break
					}
				}
			case r < 9: // cancel a random live entry
				if len(live) > 0 {
					live[rng.Intn(len(live))].slot.canceled = true
				}
			default: // compact both; freed slots must match as sets
				freedB := map[*eventSlot]bool{}
				ref.compact(func(s *eventSlot) { freedB[s] = true })
				var pool eventPool
				h4.compact(&pool)
				freedA := map[*eventSlot]bool{}
				for _, s := range pool.free {
					freedA[s] = true
				}
				if len(freedA) != len(freedB) {
					t.Fatalf("seed %d op %d: compact freed %d vs %d slots", seed, op, len(freedA), len(freedB))
				}
				for s := range freedA {
					if !freedB[s] {
						t.Fatalf("seed %d op %d: compact freed different slot sets", seed, op)
					}
				}
			}
			// Drop stale bookkeeping so the live list doesn't grow without
			// bound (entries stay valid: cancel only flips the slot flag).
			if len(live) > 512 {
				live = live[256:]
			}
		}
		drainEqual(t, "final drain", h4, ref)
	}
}

// FuzzEventQueueDifferential lets the fuzzer hunt for operation
// sequences where heap4 and the reference diverge. Each input byte is
// one operation: low bits select push/pop/cancel/compact, high bits the
// timestamp (3 bits, so ties are common).
func FuzzEventQueueDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x42, 0x03, 0x64, 0x05, 0x86, 0xa7})
	f.Add([]byte{0x10, 0x10, 0x10, 0x10, 0x04, 0x04, 0x04, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		h4, ref := newHeap4(), &refQueue{}
		var seq uint64
		var live []eqEnt
		for _, b := range data {
			switch b & 0x3 {
			case 0, 1: // push
				seq++
				e := eqEnt{when: Time(b >> 5), seq: seq, slot: &eventSlot{}}
				h4.push(e)
				ref.push(e)
				live = append(live, e)
			case 2: // pop one
				if h4.len() > 0 {
					ea, eb := h4.pop(), ref.pop()
					if ea != eb {
						t.Fatalf("pop diverged: (when=%d seq=%d) vs (when=%d seq=%d)",
							ea.when, ea.seq, eb.when, eb.seq)
					}
				}
			case 3:
				if b&0x4 != 0 { // compact
					ref.compact(func(*eventSlot) {})
					h4.compact(&eventPool{})
				} else if len(live) > 0 { // cancel
					live[int(b>>3)%len(live)].slot.canceled = true
				}
			}
		}
		for h4.len() > 0 {
			if ea, eb := h4.pop(), ref.pop(); ea != eb {
				t.Fatalf("drain diverged: (when=%d seq=%d) vs (when=%d seq=%d)",
					ea.when, ea.seq, eb.when, eb.seq)
			}
		}
		if ref.len() != 0 {
			t.Fatalf("ref queue still holds %d entries", ref.len())
		}
	})
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
