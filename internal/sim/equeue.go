package sim

// Queue entries, their order, and the queue's far tier.
//
// Events and Chan messages share one entry type and one order, so the
// engine's queue (mqueue.go) pops both from a single structure. An
// entry carries its ordering key inline — comparisons never chase the
// slot pointer. A container/heap-backed reference lives in
// equeue_ref_test.go; the differential tests prove the queue produces
// the identical pop sequence, including key tie-breaks.

// eqEnt is one queue entry: a Chan message (fn set, slot nil) or a
// scheduled event (slot set; the callback lives in the slot, so Cancel
// can release it). Entries are ordered by (at, key):
//
//   - a message's key is chid<<msgSeqBits | seq: build-time channel
//     identity and per-channel sequence, never which shard ran the
//     sender, which keeps execution order invariant to the shard count;
//   - an event's key is eventKey | seq, the engine's schedule sequence.
//
// Chan ids stay below 2^(63-msgSeqBits), so every message key is below
// eventKey: at equal timestamps messages run before events, and events
// run in schedule order.
type eqEnt struct {
	at   Time
	key  uint64
	fn   func()
	slot *eventSlot
}

// eventKey is the key bit that marks an event entry.
const eventKey = uint64(1) << 63

// msgBefore reports whether a orders strictly ahead of b: earlier time,
// then smaller key. It is the queue's one ordering function.
//
//tgvet:noalloc
func msgBefore(a, b eqEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// heap4 is the queue's far tier: the entries too far ahead for the
// ring (mqueue.go), popped in exactly (at, key) ascending order. Most
// of them are timers with one constant timeout (ARQ retransmission
// guards), pushed in the order they expire, so the tier keeps two
// parts: a FIFO run of entries pushed in order, appended in O(1), and a
// 4-ary min-heap for the pushes that order before the run's tail. peek
// and pop take the lesser of the run's head and the heap's top. The
// heap's four-child minimum scan runs over adjacent entries in one or
// two cache lines.
type heap4 struct {
	a    []eqEnt // the 4-ary heap
	run  []eqEnt // run[head:] in (at, key) order; run[:head] already popped
	head int
}

func newHeap4() *heap4 { return &heap4{} }

//tgvet:noalloc
func (h *heap4) len() int { return len(h.a) + len(h.run) - h.head }

//tgvet:noalloc
func (h *heap4) push(e eqEnt) {
	if n := len(h.run); n == h.head || !msgBefore(e, h.run[n-1]) {
		h.pushRun(e)
		return
	}
	h.a = append(h.a, e) //tgvet:allow noalloc(heap growth doubles the backing array; steady state reuses it)
	h.up(len(h.a) - 1)
}

// pushRun appends e to the run, reusing its popped prefix before
// growing.
//
//tgvet:noalloc
func (h *heap4) pushRun(e eqEnt) {
	if len(h.run) == cap(h.run) && h.head > 0 {
		n := copy(h.run, h.run[h.head:])
		clear(h.run[n:])
		h.run, h.head = h.run[:n], 0
	}
	h.run = append(h.run, e) //tgvet:allow noalloc(the run grows to the workload's high-water mark once and reuses its array)
}

// fromRun reports whether the minimum entry is the run's head; the
// tier must be non-empty.
//
//tgvet:noalloc
func (h *heap4) fromRun() bool {
	return h.head < len(h.run) && (len(h.a) == 0 || msgBefore(h.run[h.head], h.a[0]))
}

// peek returns the minimum entry without removing it.
//
//tgvet:noalloc
func (h *heap4) peek() (eqEnt, bool) {
	if h.fromRun() {
		return h.run[h.head], true
	}
	if len(h.a) == 0 {
		return eqEnt{}, false
	}
	return h.a[0], true
}

// pop removes and returns the minimum entry; the tier must be
// non-empty.
//
//tgvet:noalloc
func (h *heap4) pop() eqEnt {
	if h.fromRun() {
		x := h.run[h.head]
		h.run[h.head] = eqEnt{} // release the slot and callback pointers
		if h.head++; h.head == len(h.run) {
			h.run, h.head = h.run[:0], 0
		}
		return x
	}
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = eqEnt{} // release the slot and callback pointers
	h.a = a[:n]
	if n > 1 {
		h.down(0)
	}
	return top
}

//tgvet:noalloc
func (h *heap4) up(i int) {
	a := h.a
	e := a[i]
	for i > 0 {
		p := (i - 1) / 4
		if !msgBefore(e, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
}

//tgvet:noalloc
func (h *heap4) down(i int) {
	a := h.a
	n := len(a)
	e := a[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if msgBefore(a[j], a[m]) {
				m = j
			}
		}
		if !msgBefore(a[m], e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// compact removes every canceled event, recycling each dead slot into
// pool. What stays of the run is still in order.
//
//tgvet:noalloc
func (h *heap4) compact(pool *eventPool) {
	run := h.run[:0]
	for _, e := range h.run[h.head:] {
		if e.slot != nil && e.slot.canceled {
			pool.put(e.slot)
		} else {
			run = append(run, e) //tgvet:allow noalloc(append into the run's own prefix; capacity is already there by construction)
		}
	}
	clear(h.run[len(run):])
	h.run, h.head = run, 0
	live := h.a[:0]
	for _, e := range h.a {
		if e.slot != nil && e.slot.canceled {
			pool.put(e.slot)
		} else {
			live = append(live, e) //tgvet:allow noalloc(append into h.a's own prefix; capacity is already there by construction)
		}
	}
	clear(h.a[len(live):])
	h.a = live
	// Re-establish the heap property bottom-up: O(n), cheaper than n
	// pushes and identical in outcome (pop order depends only on keys).
	// The n>1 guard matters: (0-2)/4 is 0 in Go (truncation toward
	// zero), so an emptied heap would otherwise sift a phantom root.
	if len(h.a) > 1 {
		for i := (len(h.a) - 2) / 4; i >= 0; i-- {
			h.down(i)
		}
	}
}
