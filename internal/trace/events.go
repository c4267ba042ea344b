// Event streams: a timestamped record of the simulation's observable
// memory actions (remote-write applications, atomic applications, owner
// serializations, reflected-write applications, fences). Every HIB
// records into its node's ring of a WindowedLog, which drains the rings
// into one canonical stream, ordered by (At, Node, per-node append
// order), for the checkers attached as Sinks; the stream's Hash gives a
// canonical fingerprint of an execution, so two runs of the same seed
// can be compared byte-for-byte.
package trace

import "fmt"

// EventKind classifies an event.
type EventKind uint8

// Event kinds.
const (
	// EvIssue is a program-level operation issue (recorded by harnesses).
	EvIssue EventKind = iota + 1
	// EvWriteApply is a WriteReq applied to a node's memory.
	EvWriteApply
	// EvAtomicApply is an AtomicReq applied at its home node.
	EvAtomicApply
	// EvCopyApply is one CopyData burst applied at the destination.
	EvCopyApply
	// EvUpdateSerialize is an update serialized at a page's owner
	// (§2.3.1): the moment the write enters the global order.
	EvUpdateSerialize
	// EvReflectApply is a reflected write applied at a replica.
	EvReflectApply
	// EvFenceStart marks a FENCE beginning to drain (§2.3.5).
	EvFenceStart
	// EvFenceEnd marks a FENCE observing zero outstanding operations;
	// Val carries the outstanding-operation count at completion (zero in
	// a correct board — the linearize fence checker asserts it).
	EvFenceEnd
	// EvMsgDeliver is a bulk message payload delivered to its sink.
	EvMsgDeliver
	// EvOpInvoke marks a program-level operation crossing the HIB (or
	// DSM) boundary: Addr is the global address, Val the argument, and
	// Aux packs the boundary op code and a per-node sequence number
	// (BoundaryAux). Paired with the EvOpReturn carrying the same Aux.
	EvOpInvoke
	// EvOpReturn closes an EvOpInvoke interval: Val is the value the
	// operation returned to the program (0 for writes).
	EvOpReturn
	// EvOpArg carries an extra operand for the EvOpInvoke with the same
	// Aux (the compare&swap expected value).
	EvOpArg
)

var kindNames = map[EventKind]string{
	EvIssue:           "issue",
	EvWriteApply:      "write-apply",
	EvAtomicApply:     "atomic-apply",
	EvCopyApply:       "copy-apply",
	EvUpdateSerialize: "update-serialize",
	EvReflectApply:    "reflect-apply",
	EvFenceStart:      "fence-start",
	EvFenceEnd:        "fence-end",
	EvMsgDeliver:      "msg-deliver",
	EvOpInvoke:        "op-invoke",
	EvOpReturn:        "op-return",
	EvOpArg:           "op-arg",
}

// BoundaryOp classifies a program-level operation recorded at the HIB op
// boundary (EvOpInvoke/EvOpReturn events). The history builder in
// internal/linearize maps these onto object-model operations.
type BoundaryOp uint8

// Boundary op codes.
const (
	// BOpRead is a load (blocking: remote reads stall the processor).
	BOpRead BoundaryOp = iota + 1
	// BOpWrite is a store (remote stores are non-blocking: the response
	// marks the HIB latch, the effect is the matching apply/serialize).
	BOpWrite
	// BOpFetchInc is an atomic fetch&increment launch.
	BOpFetchInc
	// BOpFetchStore is an atomic fetch&store launch.
	BOpFetchStore
	// BOpCompareSwap is an atomic compare&swap launch (the expected value
	// travels in an EvOpArg event with the same Aux).
	BOpCompareSwap
	// BOpPageIn is a DSM page transfer driven by a fault (read or write
	// fault service; Val carries the fault access mode).
	BOpPageIn
	// BOpBarrier is an in-fabric barrier episode (arrive→release). It is
	// a synchronization boundary, not a memory operation: the
	// linearizability checker skips it.
	BOpBarrier
	// BOpReduce is an in-fabric reduction episode; like BOpBarrier it is
	// observability-only and skipped by the memory-model checkers.
	BOpReduce
)

// BoundaryAux packs a boundary op code and a per-node sequence number
// into an event's Aux field. The sequence number pairs each EvOpReturn
// (and EvOpArg) with its EvOpInvoke.
func BoundaryAux(op BoundaryOp, seq uint64) uint64 {
	return uint64(op)<<56 | seq&((1<<56)-1)
}

// SplitBoundaryAux unpacks a BoundaryAux value.
func SplitBoundaryAux(aux uint64) (BoundaryOp, uint64) {
	return BoundaryOp(aux >> 56), aux & ((1 << 56) - 1)
}

// String names the kind.
func (k EventKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one observable simulation action.
type Event struct {
	// At is the simulated time in nanoseconds.
	At int64
	// Node is the node on which the action happened.
	Node int
	// Kind classifies the action.
	Kind EventKind
	// Addr is the action's address operand (global address or offset).
	Addr uint64
	// Val is the value written / applied (0 where meaningless).
	Val uint64
	// Aux carries kind-specific context (e.g. the originating node).
	Aux uint64
}

// String renders one event line.
func (e Event) String() string {
	return fmt.Sprintf("%dns n%d %s addr=%#x val=%#x aux=%#x", e.At, e.Node, e.Kind, e.Addr, e.Val, e.Aux)
}

// FNV-1a parameters (matching hash/fnv's 64a variant). The fingerprint
// is folded incrementally as events are appended, so Hash is O(1); the
// running value after n events is bit-identical to hashing the same n
// events in one batch pass.
const (
	// HashInit is the fingerprint of the empty stream (the FNV-1a
	// 64-bit offset basis).
	HashInit uint64 = 14695981039346656037
	fnvPrime uint64 = 1099511628211
)

// FoldHash folds one event into a running FNV-1a fingerprint: every
// field in a fixed little-endian encoding, byte by byte. Folding a
// stream event-at-a-time from HashInit equals hashing the batch.
//
//tgvet:noalloc
func FoldHash(h uint64, e Event) uint64 {
	var buf [8 * 5]byte
	put64(buf[0:], uint64(e.At))
	put64(buf[8:], uint64(e.Node)<<8|uint64(e.Kind))
	put64(buf[16:], e.Addr)
	put64(buf[24:], e.Val)
	put64(buf[32:], e.Aux)
	for _, b := range buf {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// EventLog accumulates events in simulation order. It must only be used
// from inside one engine's event/process context (the engine's hand-off
// discipline already serializes appends). The fingerprint is folded on
// append, so Hash is O(1).
type EventLog struct {
	events []Event
	hash   uint64
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Append records one event.
func (l *EventLog) Append(e Event) {
	// The first fold starts from the FNV basis, so zero-value logs stay
	// usable.
	if len(l.events) == 0 {
		l.hash = HashInit
	}
	l.hash = FoldHash(l.hash, e)
	l.events = append(l.events, e)
}

// Len reports the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Events exposes the recorded stream (callers must not mutate it).
func (l *EventLog) Events() []Event { return l.events }

// Hash returns the FNV-1a fingerprint of the full stream: every field of
// every event, in order, in a fixed little-endian encoding. Two runs of
// the same seed must produce identical hashes (the determinism
// invariant); any divergence in timing, ordering, or values changes it.
// The value is folded incrementally on Append, so this is O(1).
func (l *EventLog) Hash() uint64 {
	if len(l.events) == 0 {
		return HashInit
	}
	return l.hash
}

// put64 stores v little-endian.
//
//tgvet:noalloc
func put64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
