package sim

import "math/bits"

// msgQueue is the engine's one work queue: scheduled events and Chan
// messages alike, popped in (at, key) order (see eqEnt). It is a
// calendar queue after Brown (CACM 1988): a fixed ring of time buckets
// covering [cur, cur+ringSpan), with the heap4 far tier behind it for
// entries beyond the span. Each bucket keeps its entries sorted, so a
// pop takes the first non-empty bucket's head.
//
// Three rules keep the ring correct:
//
//   - cur never passes the engine's clock. It moves only in advance,
//     which the engine calls where runWindow sets now to the head's
//     time. Discarding a canceled head must not move it: a canceled
//     far-future timer would carry cur past now, and later messages for
//     earlier times would fall behind cur, outside the ring's span.
//   - every far-tier entry lies at or beyond cur+ringSpan. advance
//     moves the entries its new span covers into the ring, so a
//     non-empty ring always holds the minimum. A canceled entry that
//     leaves the far tier is dropped there and never enters the ring.
//   - occ has a bit set for exactly the occupied buckets, by ring
//     index, and while the ring is non-empty scan is the offset of the
//     first occupied one (compact may leave scan short of it, never
//     past it). insert lowers scan, and pop, when it empties the
//     bucket at scan, finds the next occupied bucket in occ, so a
//     sparse ring costs a pop no more than a dense one.
//
// Emptied buckets file their arrays as spares by size class, so the
// ring holds arrays only for its occupied buckets. A bucket that starts
// to fill takes the smallest spare (a new array, if there is none,
// starts at minBucketCap entries), and one that fills its array trades
// it for the next larger spare before it grows one. So a large array
// waits for a dense bucket instead of idling under a sparse one, and
// the ring stops allocating once the workload's high-water mark is
// reached: the most buckets at each density at once. Taking whichever
// array was emptied last instead let a small array land in a dense
// bucket and grow long after warm-up, and made every bucket that ever
// turned dense pay a whole chain of doublings.
type msgQueue struct {
	ring      [ringBuckets]bucket
	occ       [ringBuckets / 64]uint64 // bit i%64 of occ[i/64]: ring[i] is occupied
	cur       Time                     // start of the current bucket, a multiple of ringWidth
	scan      int                      // offset from cur's bucket of the first occupied bucket
	n         int                      // entries in the ring
	far       *heap4                   // entries at or beyond cur+ringSpan
	spare     [spareClasses][][]eqEnt  // spare arrays by class (see spareClass)
	spareMask uint32                   // bit k: spare[k] is non-empty
}

// Bucket arrays come in size classes: class k holds capacities in
// [2^(k-1), 2^k), and the last class every larger one too. A new array
// starts at minBucketCap entries: every array of campus-write and
// torus-rpc grows past four, so the three doublings below it only cost
// allocations.
const (
	spareClasses = 16
	minBucketCap = 4
)

// spareClass returns the size class of an array of capacity c.
//
//tgvet:noalloc
func spareClass(c int) int { return min(bits.Len(uint(c)), spareClasses-1) }

// putSpare files an emptied array, which holds no entries, under its
// size class.
//
//tgvet:noalloc
func (q *msgQueue) putSpare(a []eqEnt) {
	k := spareClass(cap(a))
	q.spare[k] = append(q.spare[k], a[:0]) //tgvet:allow noalloc(each class holds at most the arrays of its high-water count of buckets; its capacity is reached once)
	q.spareMask |= 1 << k
}

// takeSpare removes and returns a spare array of the smallest class at
// or above k, or nil if there is none.
//
//tgvet:noalloc
func (q *msgQueue) takeSpare(k int) []eqEnt {
	m := q.spareMask >> k << k
	if m == 0 {
		return nil
	}
	k = bits.TrailingZeros32(m)
	s := q.spare[k]
	last := len(s) - 1
	a := s[last]
	s[last] = nil
	q.spare[k] = s[:last]
	if last == 0 {
		q.spareMask &^= 1 << k
	}
	return a
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

// index returns the ring index of the bucket off buckets after cur's.
//
//tgvet:noalloc
func (q *msgQueue) index(off int) int {
	return int(q.cur>>ringShift+Time(off)) & ringMask
}

// bucketAt returns the bucket off buckets after cur's.
//
//tgvet:noalloc
func (q *msgQueue) bucketAt(off int) *bucket {
	return &q.ring[q.index(off)]
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
	if q.n == 0 || off < q.scan {
		q.scan = off
	}
	i := q.index(off)
	b := &q.ring[i]
	if len(b.a) == cap(b.a) {
		if b.head > 0 {
			// Reuse the popped prefix before growing.
			n := copy(b.a, b.a[b.head:])
			clear(b.a[n:])
			b.a, b.head = b.a[:n], 0
		} else if b.a == nil {
			// An empty bucket holds no array: it is occupied from now.
			q.occ[i>>6] |= 1 << (i & 63)
			if b.a = q.takeSpare(0); b.a == nil {
				b.a = make([]eqEnt, 0, minBucketCap) //tgvet:allow noalloc(a new bucket array, made only while the ring's count of occupied buckets reaches a new high)
			}
		} else if a := q.takeSpare(spareClass(cap(b.a)) + 1); a != nil {
			// Trade up: a larger class means a larger capacity.
			a = append(a, b.a...) //tgvet:allow noalloc(the spare array is larger than b.a, so the copy fits)
			clear(b.a)
			q.putSpare(b.a)
			b.a = a
		}
	}
	a := append(b.a, x) //tgvet:allow noalloc(bucket arrays grow to the workload's high-water mark once and are recycled as spares)
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
// ring must be non-empty. Only a compact leaves scan short of it, so
// the loop almost never steps; it stays this small to stay inlinable.
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
	q.n--
	if b.head == len(b.a) {
		q.putSpare(b.a)
		b.a, b.head = nil, 0
		i := q.index(q.scan)
		w := q.occ[i>>6] &^ (1 << (i & 63))
		q.occ[i>>6] = w
		if q.n > 0 {
			// The next occupied bucket is most often in the same word.
			if m := w >> (i & 63); m != 0 {
				q.scan += bits.TrailingZeros64(m)
			} else {
				q.scan = q.first(q.scan)
			}
		}
	}
	return x
}

// first returns the offset of the first occupied bucket after off,
// where off's occupancy word holds none at or after off's ring index:
// it searches the following words circularly. The ring must hold an
// entry after off. Every occupied bucket lies within the span ahead of
// cur, so circular order from off is offset order.
//
//tgvet:noalloc
func (q *msgQueue) first(off int) int {
	base := int(q.cur >> ringShift)
	w := ((base + off) & ringMask) >> 6
	for k := 1; k <= len(q.occ); k++ {
		w = (w + 1) % len(q.occ)
		if m := q.occ[w]; m != 0 {
			return (w<<6 + bits.TrailingZeros64(m) - base) & ringMask
		}
	}
	panic("sim: msgQueue.first on an empty ring")
}

// advance moves cur up to t's bucket, where t is no later than the head
// entry's time, and moves the far-tier entries the new span covers into
// the ring. A canceled event among them goes straight back to pool
// instead; advance returns how many it dropped, which the caller takes
// off its dead-event count.
//
//tgvet:noalloc
func (q *msgQueue) advance(t Time, pool *eventPool) (dropped int) {
	c := t &^ (ringWidth - 1)
	if c <= q.cur {
		return 0
	}
	if q.scan -= int((c - q.cur) >> ringShift); q.scan < 0 {
		q.scan = 0
	}
	q.cur = c
	for {
		x, ok := q.far.peek()
		if !ok || x.at >= c+ringSpan {
			return dropped
		}
		q.far.pop()
		if x.slot != nil && x.slot.canceled {
			pool.put(x.slot)
			dropped++
			continue
		}
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
			q.putSpare(live)
			b.a = nil
			q.occ[i>>6] &^= 1 << (i & 63)
		}
	}
	q.far.compact(pool)
}
