package sim

// msgQueue is the engine's one work queue: scheduled events and Chan
// messages alike, popped in (at, key) order (see eqEnt). It is a
// calendar queue after Brown (CACM 1988): a fixed ring of time buckets
// covering [cur, cur+ringSpan), with the heap4 far tier behind it for
// entries beyond the span. Each bucket keeps its entries sorted, so a
// pop takes the first non-empty bucket's head.
//
// Two rules keep the ring correct:
//
//   - cur never passes the engine's clock. It moves only in advance,
//     which the engine calls where runWindow sets now to the head's
//     time. Discarding a canceled head must not move it: a canceled
//     far-future timer would carry cur past now, and later messages for
//     earlier times would fall behind cur, outside the ring's span.
//   - every far-tier entry lies at or beyond cur+ringSpan. advance
//     moves the entries its new span covers into the ring, so a
//     non-empty ring always holds the minimum.
//
// Emptied buckets hand their arrays to one spare list, and the next
// bucket to fill takes one from it, so the ring holds arrays only for
// its occupied buckets and stops allocating once the workload's
// high-water mark is reached.
type msgQueue struct {
	ring  [ringBuckets]bucket
	cur   Time   // start of the current bucket, a multiple of ringWidth
	scan  int    // offset from cur's bucket; the buckets before it are empty
	n     int    // entries in the ring
	far   *heap4 // entries at or beyond cur+ringSpan
	spare [][]eqEnt
}

// bucket is one ring slot: a[head:] are its entries in (at, key) order,
// a[:head] already popped.
type bucket struct {
	a    []eqEnt
	head int
}

// The ring's geometry follows a census of the benchmark's traffic: every
// campus-write event is scheduled 0–1.4 µs ahead and every message 1 µs
// ahead; torus-rpc events at most 2.58 µs ahead and messages 10 ns
// ahead. A 4.1 µs span holds all of it, so the far tier sees only rare
// long timers. On campus-write 99.2 % of items run at the same instant
// as the item before them, so an instant's items cluster in one 16 ns
// bucket (under the 30 ns link word time). Events join a cluster in
// schedule order, at its end; a message joins ahead of the cluster's
// events, so insert binary-searches its place and moves the tail up in
// one copy.
const (
	ringShift   = 4
	ringWidth   = Time(1) << ringShift // 16 ns
	ringBuckets = 256
	ringMask    = ringBuckets - 1
	ringSpan    = ringWidth * ringBuckets // 4 096 ns
)

func newMsgQueue() msgQueue { return msgQueue{far: newHeap4()} }

//tgvet:noalloc
func (q *msgQueue) len() int { return q.n + q.far.len() }

// bucketAt returns the bucket off buckets after cur's.
//
//tgvet:noalloc
func (q *msgQueue) bucketAt(off int) *bucket {
	return &q.ring[int(q.cur>>ringShift+Time(off))&ringMask]
}

//tgvet:noalloc
func (q *msgQueue) push(x eqEnt) {
	d := x.at - q.cur
	if d >= ringSpan {
		q.far.push(x)
		return
	}
	off := 0
	if d > 0 {
		off = int(d >> ringShift)
	}
	// d < 0 is an entry behind cur, so behind the clock, which only a
	// wrong safe-window bound produces: it sorts to the head of cur's
	// bucket, where runWindow reports the causality violation.
	q.insert(off, x)
}

// insert places x in order in the bucket off buckets after cur's.
//
//tgvet:noalloc
func (q *msgQueue) insert(off int, x eqEnt) {
	if off < q.scan {
		q.scan = off
	}
	b := q.bucketAt(off)
	if len(b.a) == cap(b.a) {
		if b.head > 0 {
			// Reuse the popped prefix before growing.
			n := copy(b.a, b.a[b.head:])
			clear(b.a[n:])
			b.a, b.head = b.a[:n], 0
		} else if b.a == nil && len(q.spare) > 0 {
			last := len(q.spare) - 1
			b.a = q.spare[last]
			q.spare[last] = nil
			q.spare = q.spare[:last]
		}
	}
	a := append(b.a, x) //tgvet:allow noalloc(bucket arrays grow to the workload's high-water mark once and are recycled through the spare list)
	if n := len(a) - 1; n > b.head && msgBefore(x, a[n-1]) {
		// x belongs before the first entry of a[head:n] it orders ahead of.
		lo, hi := b.head, n-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if msgBefore(x, a[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(a[lo+1:], a[lo:n])
		a[lo] = x
	}
	b.a = a
	q.n++
}

// seek moves scan to the first non-empty bucket and returns it; the
// ring must be non-empty.
//
//tgvet:noalloc
func (q *msgQueue) seek() *bucket {
	for {
		if b := q.bucketAt(q.scan); b.head < len(b.a) {
			return b
		}
		q.scan++
	}
}

// peek returns the head entry without removing it.
//
//tgvet:noalloc
func (q *msgQueue) peek() (eqEnt, bool) {
	if q.n == 0 {
		return q.far.peek()
	}
	b := q.seek()
	return b.a[b.head], true
}

// pop removes and returns the head entry; the queue must be non-empty.
// It never moves cur.
//
//tgvet:noalloc
func (q *msgQueue) pop() eqEnt {
	if q.n == 0 {
		return q.far.pop()
	}
	b := q.seek()
	x := b.a[b.head]
	b.a[b.head] = eqEnt{} // release the slot and callback pointers
	b.head++
	if b.head == len(b.a) {
		q.spare = append(q.spare, b.a[:0]) //tgvet:allow noalloc(the spare list holds at most one array per bucket; its capacity is reached once)
		b.a, b.head = nil, 0
	}
	q.n--
	return x
}

// advance moves cur up to t's bucket, where t is no later than the head
// entry's time, and moves the far-tier entries the new span covers into
// the ring.
//
//tgvet:noalloc
func (q *msgQueue) advance(t Time) {
	c := t &^ (ringWidth - 1)
	if c <= q.cur {
		return
	}
	if q.scan -= int((c - q.cur) >> ringShift); q.scan < 0 {
		q.scan = 0
	}
	q.cur = c
	for {
		x, ok := q.far.peek()
		if !ok || x.at >= c+ringSpan {
			return
		}
		q.far.pop()
		q.insert(int((x.at-c)>>ringShift), x)
	}
}

// absorb inserts a batch of cross-shard messages at a barrier, when no
// shard is executing.
//
//tgvet:noalloc
func (q *msgQueue) absorb(batch []eqEnt) {
	for _, x := range batch {
		q.push(x)
	}
}

// compact removes every canceled event from both tiers, recycling each
// dead slot into pool.
//
//tgvet:noalloc
func (q *msgQueue) compact(pool *eventPool) {
	for i := range q.ring {
		b := &q.ring[i]
		if b.a == nil {
			continue
		}
		live := b.a[:0]
		for _, x := range b.a[b.head:] {
			if x.slot != nil && x.slot.canceled {
				pool.put(x.slot)
				q.n--
			} else {
				live = append(live, x) //tgvet:allow noalloc(append into the bucket's own prefix; capacity is already there by construction)
			}
		}
		clear(b.a[len(live):])
		b.a, b.head = live, 0
		if len(live) == 0 {
			q.spare = append(q.spare, live) //tgvet:allow noalloc(the spare list holds at most one array per bucket; its capacity is reached once)
			b.a = nil
		}
	}
	q.far.compact(pool)
}
