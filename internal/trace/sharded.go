package trace

// ShardedLog is a per-node family of event logs for sharded runs: each
// node appends to its own buffer from its own shard (no cross-shard
// contention, no locks), and Merge folds the buffers into one canonical
// stream ordered by (At, Node) with per-node append order preserved.
// That order depends only on what each node did and when — never on how
// nodes were packed onto shards or how the Go scheduler interleaved
// them — so the merged stream's Hash is identical for any shard count.
//
// Single-shard runs use the same recorder/merge path: the canonical
// order is defined once, not per execution mode.
type ShardedLog struct {
	logs []*EventLog
}

// NewShardedLog returns a sharded log with one buffer per node.
func NewShardedLog(nodes int) *ShardedLog {
	s := &ShardedLog{logs: make([]*EventLog, nodes)}
	for i := range s.logs {
		s.logs[i] = NewEventLog()
	}
	return s
}

// Recorder returns node's append function (to install as an HIB
// recorder). The returned function must only be called from node's own
// shard context.
func (s *ShardedLog) Recorder(node int) func(Event) {
	l := s.logs[node]
	return l.Append
}

// Node exposes one node's private buffer.
func (s *ShardedLog) Node(node int) *EventLog { return s.logs[node] }

// Len reports the total number of recorded events across all nodes.
func (s *ShardedLog) Len() int {
	n := 0
	for _, l := range s.logs {
		n += l.Len()
	}
	return n
}

// Merge folds the per-node buffers into one EventLog in canonical
// (At, Node) order, preserving each node's append order. Call it after
// the simulation has quiesced; the result is a snapshot.
//
// Events for one address are totally ordered in the result: every
// apply/serialize action for a word happens on that word's home (or
// owner) node, so its events live in a single buffer whose relative
// order the merge keeps.
//
// The merge is a streaming k-way merge over the per-node buffers keyed
// by (head.At, node): each buffer is already in nondecreasing At order,
// so popping the smallest head reproduces exactly what concatenating in
// node order and stable-sorting by At used to produce (ties break by
// node, then per-node append order) — in O(n log k) without the double
// copy. The differential test pins the equivalence against a
// sort.SliceStable reference.
func (s *ShardedLog) Merge() *EventLog {
	merged := &EventLog{events: make([]Event, 0, s.Len())}
	cur := make([]int, len(s.logs))
	heap := make([]int32, 0, len(s.logs))
	head := func(n int32) Event { return s.logs[n].events[cur[n]] }
	less := func(a, b int32) bool {
		ta, tb := head(a).At, head(b).At
		return ta < tb || (ta == tb && a < b)
	}
	var siftDown func(i int)
	siftDown = func(i int) {
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i, l := range s.logs {
		if l.Len() > 0 {
			heap = append(heap, int32(i))
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 {
		nd := heap[0]
		merged.Append(head(nd))
		cur[nd]++
		if cur[nd] < s.logs[nd].Len() {
			siftDown(0)
		} else {
			last := len(heap) - 1
			heap[0] = heap[last]
			heap = heap[:last]
			siftDown(0)
		}
	}
	return merged
}
