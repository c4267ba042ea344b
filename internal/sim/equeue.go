package sim

// The engine's event priority queue.
//
// Events live in pooled slots (see pool.go); the queue itself stores
// compact value entries carrying the (when, seq) ordering key inline, so
// a sift compares keys without chasing the slot pointer — the comparison
// path stays in the queue's own backing array. The queue is a 4-ary
// heap: against a binary heap it halves the tree depth, and the
// four-child minimum scan runs over adjacent entries in one or two cache
// lines, which is exactly the trade that pays on pop-heavy discrete-event
// load. A container/heap-backed reference lives in equeue_ref_test.go;
// the differential tests prove both produce the identical pop sequence,
// including seq tie-breaks.

// eqEnt is one queue entry: the ordering key plus the event's slot.
type eqEnt struct {
	when Time
	seq  uint64
	slot *eventSlot
}

// before reports whether a orders strictly ahead of b: earlier time,
// FIFO (schedule sequence) among simultaneous events.
//
//tgvet:noalloc
func (a eqEnt) before(b eqEnt) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// heap4 is the engine's event queue: a 4-ary min-heap of value entries.
// Pop order is exactly (when, seq) ascending. Canceled events are the
// engine's business — it checks slots at peek/pop and calls compact when
// dead entries accumulate.
type heap4 struct {
	a []eqEnt
}

func newHeap4() *heap4 { return &heap4{} }

//tgvet:noalloc
func (h *heap4) len() int { return len(h.a) }

//tgvet:noalloc
func (h *heap4) push(e eqEnt) {
	h.a = append(h.a, e) //tgvet:allow noalloc(heap growth doubles the backing array; steady state reuses it)
	h.up(len(h.a) - 1)
}

// peek returns the minimum entry without removing it.
//
//tgvet:noalloc
func (h *heap4) peek() (eqEnt, bool) {
	if len(h.a) == 0 {
		return eqEnt{}, false
	}
	return h.a[0], true
}

// pop removes and returns the minimum entry; the queue must be non-empty.
//
//tgvet:noalloc
func (h *heap4) pop() eqEnt {
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = eqEnt{} // release the slot pointer
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
		if !e.before(a[p]) {
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
			if a[j].before(a[m]) {
				m = j
			}
		}
		if !a[m].before(e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// compact removes every entry whose slot was canceled, recycling each
// dead slot into pool.
//
//tgvet:noalloc
func (h *heap4) compact(pool *eventPool) {
	live := h.a[:0]
	for _, e := range h.a {
		if e.slot.canceled {
			pool.put(e.slot)
		} else {
			live = append(live, e) //tgvet:allow noalloc(append into h.a's own prefix; capacity is already there by construction)
		}
	}
	for i := len(live); i < len(h.a); i++ {
		h.a[i] = eqEnt{}
	}
	h.a = live
	// Re-establish the heap property bottom-up: O(n), cheaper than n
	// pushes and identical in outcome (pop order depends only on keys).
	// The n>1 guard matters: (0-2)/4 is 0 in Go (truncation toward
	// zero), so an emptied queue would otherwise sift a phantom root.
	if len(h.a) > 1 {
		for i := (len(h.a) - 2) / 4; i >= 0; i-- {
			h.down(i)
		}
	}
}
