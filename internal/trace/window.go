package trace

import "math"

// DefaultWindow is the initial per-node ring capacity used when a
// caller does not configure one. It is small on purpose: a drained
// pipeline holds about a hundred events across all nodes, and a ring
// doubles whenever a round outpaces it, so each node's ring settles at
// its own high-water mark instead of preallocating one no run needs.
const DefaultWindow = 16

// nodeWindow is one node's private ring buffer of undrained events.
// The recorder (running on the node's shard) appends at the tail; the
// drain (running at barrier boundaries, when no shard is executing)
// pops from the head. The ring only grows when a round outpaces the
// configured window — correctness is never traded for the bound.
type nodeWindow struct {
	buf  []Event
	head int
	n    int
}

//tgvet:noalloc
func (w *nodeWindow) push(e Event) {
	if w.n == len(w.buf) {
		w.grow()
	}
	i := w.head + w.n
	if i >= len(w.buf) {
		i -= len(w.buf)
	}
	w.buf[i] = e
	w.n++
}

//tgvet:noalloc
func (w *nodeWindow) grow() {
	nb := make([]Event, 2*len(w.buf)) //tgvet:allow noalloc(ring doubling only when a round outpaces the window; steady state never grows)
	for i := 0; i < w.n; i++ {
		j := w.head + i
		if j >= len(w.buf) {
			j -= len(w.buf)
		}
		nb[i] = w.buf[j]
	}
	w.buf, w.head = nb, 0
}

//tgvet:noalloc
func (w *nodeWindow) front() Event { return w.buf[w.head] }

//tgvet:noalloc
func (w *nodeWindow) pop() Event {
	e := w.buf[w.head]
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
	}
	w.n--
	return e
}

// WindowedLog is the trace pipeline: a fixed-capacity per-node ring
// buffer family whose contents are drained incrementally through a
// k-way merge into attached Sinks, with the FNV-1a fingerprint folded
// as events stream past. Steady state (rings at capacity, drains
// keeping up) allocates nothing per event.
//
// Canonical order is (At, Node, per-node append order): by time, ties
// broken by node rank, and each node's events in the order it recorded
// them. Each node's recorder appends events in nondecreasing At order
// (engine time is monotone per node) and its ring is FIFO, so
// Drain(safe) produces that order over the events with At < safe by
// merging the ring heads by (front.At, node). The watermark contract (no
// node will ever append an event with At < safe after Drain(safe) is
// called) makes the concatenation of successive drains the canonical
// order of the whole run, so the stream — and its running fingerprint —
// depends only on what each node did and when: never on drain cadence,
// shard count, or how the Go scheduler interleaved the shards.
//
// Appends are per-node (one shard each, no locks); Drain must only be
// called when no shard is executing (a barrier boundary, or after
// quiescence).
type WindowedLog struct {
	win    []nodeWindow
	sinks  []Sink
	adv    []Advancer
	spill  *SpillWriter
	heap   []int32
	hash   uint64
	merged uint64
	lastAt int64
	maxRes int
	sErr   error
}

// NewWindowedLog returns a windowed log for nodes nodes with initial
// per-node ring capacity window (DefaultWindow if window <= 0).
func NewWindowedLog(nodes, window int) *WindowedLog {
	if window <= 0 {
		window = DefaultWindow
	}
	w := &WindowedLog{
		win:  make([]nodeWindow, nodes),
		heap: make([]int32, 0, nodes),
		hash: HashInit,
	}
	for i := range w.win {
		w.win[i].buf = make([]Event, window)
	}
	return w
}

// Recorder returns node's append function (to install as an HIB
// recorder). The returned function must only be called from node's own
// shard context; it touches nothing shared with other nodes.
func (w *WindowedLog) Recorder(node int) func(Event) {
	nw := &w.win[node]
	return func(e Event) { nw.push(e) }
}

// AddSink attaches a sink to the merged stream. Sinks receive every
// subsequently drained event in canonical order; sinks that also
// implement Advancer are notified of each drain watermark.
func (w *WindowedLog) AddSink(s Sink) {
	w.sinks = append(w.sinks, s)
	if a, ok := s.(Advancer); ok {
		w.adv = append(w.adv, a)
	}
}

// SetSpill attaches a spill writer: every drained event is also encoded
// to it (TGE1), so overflowing windows page to disk for offline replay.
func (w *WindowedLog) SetSpill(s *SpillWriter) { w.spill = s }

// SpillErr reports the first spill-write error encountered by a drain
// (drains themselves keep going — the in-memory pipeline stays exact
// even when the disk copy fails; callers check this at the end).
func (w *WindowedLog) SpillErr() error { return w.sErr }

// Resident reports the number of currently buffered (undrained) events.
//
//tgvet:noalloc
func (w *WindowedLog) Resident() int {
	n := 0
	for i := range w.win {
		n += w.win[i].n
	}
	return n
}

// MaxResident reports the peak residency observed at drain boundaries:
// the bounded-memory invariant is MaxResident = O(nodes × window), not
// O(events).
func (w *WindowedLog) MaxResident() int { return w.maxRes }

// Merged reports the number of events drained so far.
func (w *WindowedLog) Merged() uint64 { return w.merged }

// LastAt reports the timestamp of the last drained event.
func (w *WindowedLog) LastAt() int64 { return w.lastAt }

// Hash returns the running FNV-1a fingerprint of the drained stream.
// After DrainAll it equals the Hash of an EventLog that retained the
// whole canonical stream.
func (w *WindowedLog) Hash() uint64 { return w.hash }

// less orders merge-heap entries by (front.At, node).
//
//tgvet:noalloc
func (w *WindowedLog) less(a, b int32) bool {
	ta, tb := w.win[a].front().At, w.win[b].front().At
	return ta < tb || (ta == tb && a < b)
}

//tgvet:noalloc
func (w *WindowedLog) siftDown(i int) {
	h := w.heap
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && w.less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && w.less(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Drain merges and delivers every buffered event with At < safe, in
// canonical order, to the fingerprint, the spill writer, and every
// sink; Advancer sinks are then notified of the watermark. The caller
// promises no node will append an event with At < safe afterwards (the
// sim layer's round hook supplies safe: a barrier round's global bound,
// or a serial stretch's earliest queued work).
// It returns the number of events delivered and the first spill error
// encountered, if any.
//
//tgvet:noalloc
func (w *WindowedLog) Drain(safe int64) (int, error) {
	if r := w.Resident(); r > w.maxRes {
		w.maxRes = r
	}
	h := w.heap[:0]
	for i := range w.win {
		if w.win[i].n > 0 && w.win[i].front().At < safe {
			h = append(h, int32(i)) //tgvet:allow noalloc(merge-heap scratch was preallocated to the node count in NewWindowedLog and is reused)
		}
	}
	w.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		w.siftDown(i)
	}
	drained := 0
	var spillErr error
	for len(w.heap) > 0 {
		nd := w.heap[0]
		e := w.win[nd].pop()
		w.hash = FoldHash(w.hash, e)
		w.merged++
		w.lastAt = e.At
		if w.spill != nil && spillErr == nil {
			spillErr = w.spill.Write(e) //tgvet:allow noalloc(spill path does buffered disk I/O by design; it is opt-in and off the default drain)
			if spillErr != nil && w.sErr == nil {
				w.sErr = spillErr
			}
		}
		for _, s := range w.sinks {
			s.Append(e) //tgvet:allow noalloc(sinks are caller-attached observers; the core drain without sinks is the proven path)
		}
		drained++
		if w.win[nd].n > 0 && w.win[nd].front().At < safe {
			w.siftDown(0)
		} else {
			last := len(w.heap) - 1
			w.heap[0] = w.heap[last]
			w.heap = w.heap[:last]
			w.siftDown(0)
		}
	}
	for _, a := range w.adv {
		a.Advance(safe) //tgvet:allow noalloc(watermark notification to caller-attached sinks, outside the per-event loop)
	}
	return drained, spillErr
}

// DrainAll drains every remaining buffered event (call after the
// simulation has quiesced — the watermark contract is then vacuous).
func (w *WindowedLog) DrainAll() (int, error) { return w.Drain(math.MaxInt64) }
