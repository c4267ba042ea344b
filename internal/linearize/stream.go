package linearize

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"telegraphos/internal/trace"
)

// Online is the windowed form of the conformance checker: a trace.Sink
// that consumes the merged event stream as it is drained, decides
// linearizability window by window, and garbage-collects everything it
// has decided. Verdicts are identical to running the batch pipeline
// (FromTrace + Check + CheckFences) over the complete trace; memory is
// O(open operations + undecided windows) instead of O(history).
//
// The decision rule exploits quiescent cuts. At each watermark
// Advance(safe), every operation already delivered completed strictly
// before safe, and every future operation will be invoked at or after
// safe. For a location whose open-operation count is zero, the window
// of completed operations therefore strictly precedes (in the
// Herlihy–Wing interval order) everything still to come: in any valid
// linearization of the full history the window's operations must all be
// placed before the rest. Linearizability thus composes exactly across
// the cut — the window is decided now, from the set of word states the
// previous windows could have ended in, and only the set of its own
// possible final states is carried forward. An empty final-state set is
// a violation, and it is the same violation the batch checker would
// report from the whole history.
//
// Fences are checked by the same incremental bookkeeping (see
// onlineFence below): per fence, the latest pre-fence write effect and
// the earliest post-fence effect are maintained as operations complete,
// which is exactly the data the three batch CheckFences properties are
// stated over. A fence retires — is freed — once its pre-fence writes
// have all completed and the watermark has passed their latest effect,
// after which no future event can implicate it.
type Online struct {
	b        *histBuilder
	restrict map[uint64]bool
	locs     map[uint64]*locChecker
	locList  []*locChecker
	fences   *onlineFence
	finished bool
	vios     []*Violation

	ops     uint64
	windows uint64
	peak    int
}

// locChecker is one location's undecided tail: the word states the
// decided prefix may have ended in, and the window of completed-but-
// undecided operations.
type locChecker struct {
	loc    uint64
	states []uint64 // sorted, nonempty; {0} initially
	window []Op
	open   int
	failed bool
}

// NewOnline returns an online checker with no location restriction.
// Feed it the merged stream (it is a trace.Sink; attach it to a
// WindowedLog), let each drain call Advance, and call Finish once the
// stream ends. Err/Violations/FenceViolations report the verdict.
func NewOnline() *Online {
	o := &Online{
		b:      newHistBuilder(false),
		locs:   make(map[uint64]*locChecker),
		fences: newOnlineFence(),
	}
	o.b.invoke = o.onInvoke
	o.b.emit = o.onEmit
	return o
}

// RestrictLocs limits linearizability checking to the listed locations
// (nil = all). Fence checking always sees every operation — a barrier
// orders all of its issuer's traffic, not just the checked words.
func (o *Online) RestrictLocs(locs map[uint64]bool) { o.restrict = locs }

// Append feeds one event of the merged stream (trace.Sink).
func (o *Online) Append(e trace.Event) { o.b.feed(e) }

// loc returns the checker for loc, nil if restricted away.
func (o *Online) loc(loc uint64) *locChecker {
	if o.restrict != nil && !o.restrict[loc] {
		return nil
	}
	lc := o.locs[loc]
	if lc == nil {
		lc = &locChecker{loc: loc, states: []uint64{0}}
		o.locs[loc] = lc
		o.locList = append(o.locList, lc)
	}
	return lc
}

func (o *Online) onInvoke(op Op, invSeq uint64) {
	o.fences.invoke(op, invSeq)
	if op.Kind == Fence {
		return
	}
	if lc := o.loc(op.Loc); lc != nil {
		lc.open++
	}
}

func (o *Online) onEmit(op Op, invSeq uint64) {
	o.ops++
	o.fences.complete(op, invSeq)
	if op.Kind == Fence {
		return
	}
	lc := o.loc(op.Loc)
	if lc == nil {
		return
	}
	lc.open--
	if lc.failed {
		return
	}
	lc.window = append(lc.window, op)
	if len(lc.window) > o.peak {
		o.peak = len(lc.window)
	}
}

// Advance decides every quiescent location's window against its
// carried state set and retires fences the watermark has cleared
// (trace.Advancer; the WindowedLog calls it after each drain).
func (o *Online) Advance(safe int64) {
	o.fences.advance(safe)
	for _, lc := range o.locList {
		if lc.failed || lc.open != 0 || len(lc.window) == 0 {
			continue
		}
		canonSort(lc.window)
		finals := searchFinals(lc.window, lc.states)
		if len(finals) == 0 {
			o.vios = append(o.vios, windowViolation(lc))
			lc.failed = true
			lc.window = nil
			continue
		}
		lc.states = finals
		lc.window = lc.window[:0]
		o.windows++
	}
}

// Finish resolves operations still open at the end of the stream (the
// same leftover rules as the batch builder — effects without returns,
// latched local writes, Pending otherwise) and decides every remaining
// window. Idempotent.
func (o *Online) Finish() {
	if o.finished {
		return
	}
	o.finished = true
	o.b.finish()
	for _, lc := range o.locList {
		if lc.failed || len(lc.window) == 0 {
			continue
		}
		canonSort(lc.window)
		ok := false
		for _, init := range lc.states {
			if search(lc.window, init) {
				ok = true
				break
			}
		}
		if !ok {
			o.vios = append(o.vios, windowViolation(lc))
			lc.failed = true
		}
		lc.window = nil
		o.windows++
	}
}

// Violations returns the linearizability violations found, in detection
// order (deterministic for a given stream and drain cadence).
func (o *Online) Violations() []*Violation { return o.vios }

// FenceViolations returns the fence-ordering violations found.
func (o *Online) FenceViolations() []*Violation { return o.fences.vios }

// Err returns the first violation of either kind, nil if the stream
// conformed. Call after Finish.
func (o *Online) Err() error {
	if len(o.vios) > 0 {
		return o.vios[0]
	}
	if len(o.fences.vios) > 0 {
		return o.fences.vios[0]
	}
	return nil
}

// AgreesWithBatch is the differential oracle for the online checker:
// it rebuilds the history from events — the complete stream this
// checker consumed, in canonical order — runs the batch checkers
// (FromTrace, then CheckLocs under the same location restriction, and
// CheckFences), and returns an error naming each verdict that differs
// from this checker's, nil if both verdicts agree. Call after Finish.
// It costs O(history), so tests use it, not production runs.
func (o *Online) AgreesWithBatch(events []trace.Event) error {
	h := FromTrace(events)
	var diffs []string
	if lin := CheckLocs(h, o.restrict); (lin == nil) != (len(o.vios) == 0) {
		diffs = append(diffs, fmt.Sprintf("online linearizability verdict (%d violations) disagrees with batch (%v)",
			len(o.vios), lin))
	}
	if fence := CheckFences(h); (fence == nil) != (len(o.fences.vios) == 0) {
		diffs = append(diffs, fmt.Sprintf("online fence verdict (%d violations) disagrees with batch (%v)",
			len(o.fences.vios), fence))
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("linearize: %s", strings.Join(diffs, "; "))
}

// OnlineStats is a snapshot of the checker's workload counters.
type OnlineStats struct {
	// Ops is the number of completed operations consumed.
	Ops uint64
	// Windows is the number of per-location windows decided.
	Windows uint64
	// PeakWindow is the largest single undecided window observed — the
	// bounded-memory figure of merit (it tracks contention, not run
	// length).
	PeakWindow int
}

// Stats reports workload counters.
func (o *Online) Stats() OnlineStats {
	return OnlineStats{Ops: o.ops, Windows: o.windows, PeakWindow: o.peak}
}

func windowViolation(lc *locChecker) *Violation {
	detail := fmt.Sprintf("no linearization of %d ops from %d carried state(s) %#x; window:",
		len(lc.window), len(lc.states), lc.states)
	for i, op := range lc.window {
		if i == 16 {
			detail += fmt.Sprintf(" … (%d more)", len(lc.window)-i)
			break
		}
		detail += "\n\t" + op.String()
	}
	return &Violation{Loc: lc.loc, Kind: "linearizability", Detail: detail}
}

// canonSort puts a window in the canonical order CheckLoc uses
// (ascending invocation, ties by process), so verdicts and messages are
// deterministic.
func canonSort(ops []Op) {
	slices.SortStableFunc(ops, func(a, b Op) int {
		if c := cmp.Compare(a.Inv, b.Inv); c != 0 {
			return c
		}
		return cmp.Compare(a.Proc, b.Proc)
	})
}

// searchFinals runs the Wing–Gong search from each carried initial
// state and collects every word state a complete linearization of the
// window can end in (the union over initial states, sorted). Unlike the
// boolean search it does not stop at the first success — the full final
// set is what makes the windowed decision exact. Pending operations,
// when present, may extend a complete linearization and contribute
// extra final states.
func searchFinals(ops []Op, inits []uint64) []uint64 {
	n := len(ops)
	finalSet := make(map[uint64]bool)
	for _, init := range inits {
		done := newBitset(n)
		seen := make(map[string]bool)
		var dfs func(state uint64, remaining int)
		dfs = func(state uint64, remaining int) {
			k := done.key(state)
			if seen[k] {
				return
			}
			seen[k] = true
			if remaining == 0 {
				finalSet[state] = true
				// Keep exploring: pending ops may still linearize.
			}
			frontier := int64(1<<63 - 1)
			for i := 0; i < n; i++ {
				if done.has(i) || ops[i].Pending {
					continue
				}
				if ops[i].Res < frontier {
					frontier = ops[i].Res
				}
			}
			for i := 0; i < n; i++ {
				if done.has(i) || ops[i].Inv > frontier {
					continue
				}
				next, ok := apply(ops[i], state)
				if !ok {
					continue
				}
				done.set(i)
				rem := remaining
				if !ops[i].Pending {
					rem--
				}
				dfs(next, rem)
				done.clear(i)
			}
		}
		remaining := 0
		for _, op := range ops {
			if !op.Pending {
				remaining++
			}
		}
		dfs(init, remaining)
	}
	out := make([]uint64, 0, len(finalSet))
	//tgvet:allow maporder(final states are collected into a slice and sorted immediately below)
	for s := range finalSet {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------
// Online fence checking.

// ofFence is one fence's live bookkeeping, the incremental form of the
// per-fence scan in CheckFences: preMax/preOp track the latest pre-fence
// write effect, prePending the pre-fence writes still in flight, and
// minPost/minPostOp the earliest post-fence effect. Every batch property
// is re-checked whenever one of these moves, so a violation surfaces as
// soon as the implicated operation completes.
type ofFence struct {
	invSeq     uint64
	op         Op // the completed fence (valid once completed)
	completed  bool
	preMax     int64
	preOp      Op
	hasPre     bool
	prePending int
	minPost    int64
	minPostOp  Op
}

// ofProc is one process's fence state.
type ofProc struct {
	proc       int
	openWrites int
	maxDoneRes int64 // latest completed-write effect so far
	maxDoneOp  Op
	hasDone    bool
	fences     []*ofFence
}

type onlineFence struct {
	procs    map[int]*ofProc
	procList []*ofProc
	vios     []*Violation
	// free holds retired fence records, which invoke overwrites and
	// reuses. A retired fence is referenced by nothing: its proc's list
	// has dropped it.
	free []*ofFence
}

func newOnlineFence() *onlineFence {
	return &onlineFence{procs: make(map[int]*ofProc)}
}

func (fc *onlineFence) proc(p int) *ofProc {
	fp := fc.procs[p]
	if fp == nil {
		fp = &ofProc{proc: p, maxDoneRes: -1 << 62}
		fc.procs[p] = fp
		fc.procList = append(fc.procList, fp)
	}
	return fp
}

func (fc *onlineFence) violate(detail string) {
	fc.vios = append(fc.vios, &Violation{Kind: "fence", Detail: detail})
}

// invoke registers an opening operation. A fence snapshots the writes
// already completed (they are all pre-fence: they were invoked earlier)
// and the writes still open (pre-fence and pending against it).
func (fc *onlineFence) invoke(op Op, invSeq uint64) {
	fp := fc.proc(op.Proc)
	switch op.Kind {
	case Write:
		fp.openWrites++
	case Fence:
		var f *ofFence
		if n := len(fc.free); n > 0 {
			f = fc.free[n-1]
			fc.free = fc.free[:n-1]
		} else {
			f = new(ofFence)
		}
		*f = ofFence{invSeq: invSeq, prePending: fp.openWrites, minPost: 1<<62 - 1, preMax: -1 << 62}
		if fp.hasDone {
			f.preMax, f.preOp, f.hasPre = fp.maxDoneRes, fp.maxDoneOp, true
		}
		fp.fences = append(fp.fences, f)
	}
}

// complete consumes a finished operation and re-checks every live fence
// it bears on; the checks mirror CheckFences property for property.
func (fc *onlineFence) complete(op Op, invSeq uint64) {
	fp := fc.proc(op.Proc)
	switch {
	case op.Kind == Fence:
		fc.fenceDone(fp, op, invSeq)
	case op.Kind == Write && op.Pending:
		// A write that never took effect: fatal for every completed fence
		// invoked after it (batch property 2's Pending arm).
		fp.openWrites--
		for _, f := range fp.fences {
			if invSeq < f.invSeq {
				f.prePending--
				if f.completed {
					fc.violate(fmt.Sprintf(
						"p%d fence completed at %d but pre-fence %v never took effect",
						fp.proc, f.op.Res, op))
				}
			}
		}
	case op.Kind == Write:
		fp.openWrites--
		if !fp.hasDone || op.Res > fp.maxDoneRes {
			fp.maxDoneRes, fp.maxDoneOp, fp.hasDone = op.Res, op, true
		}
		for _, f := range fp.fences {
			if invSeq < f.invSeq {
				f.prePending--
				if op.Res > f.preMax {
					f.preMax, f.preOp, f.hasPre = op.Res, op, true
				}
				if f.completed && op.Res > f.op.Res {
					fc.violate(fmt.Sprintf(
						"p%d fence completed at %d before pre-fence %v took effect",
						fp.proc, f.op.Res, op))
				}
				if f.completed && f.minPost < f.preMax {
					fc.violate(fmt.Sprintf(
						"p%d post-fence %v took effect before pre-fence %v (fence at %d)",
						fp.proc, f.minPostOp, f.preOp, f.op.Res))
				}
			} else if !op.Pending {
				fc.postEffect(fp, f, op)
			}
		}
	default:
		// Reads/atomics order against pre-fence writes too (property 3);
		// pending ones are skipped, as in the batch scan.
		if op.Pending {
			return
		}
		for _, f := range fp.fences {
			if invSeq > f.invSeq {
				fc.postEffect(fp, f, op)
			}
		}
	}
}

// fenceDone handles the fence's own completion: counter drained, and no
// already-known pre-fence effect may postdate it.
func (fc *onlineFence) fenceDone(fp *ofProc, op Op, invSeq uint64) {
	for i, f := range fp.fences {
		if f.invSeq != invSeq {
			continue
		}
		if op.Pending {
			// A fence that never completed is outside the contract (the
			// batch checker skips it); drop its record.
			fp.fences = slices.Delete(fp.fences, i, i+1)
			fc.free = append(fc.free, f)
			return
		}
		f.completed = true
		f.op = op
		if op.Arg != 0 {
			fc.violate(fmt.Sprintf(
				"p%d fence completed at %d with outstanding-operation counter %d (must drain to zero)",
				fp.proc, op.Res, op.Arg))
		}
		if f.hasPre && f.preMax > op.Res {
			fc.violate(fmt.Sprintf(
				"p%d fence completed at %d before pre-fence %v took effect",
				fp.proc, op.Res, f.preOp))
		}
		return
	}
}

// postEffect folds one completed post-fence operation into f.
func (fc *onlineFence) postEffect(fp *ofProc, f *ofFence, op Op) {
	if op.Res < f.minPost {
		f.minPost, f.minPostOp = op.Res, op
	}
	if f.completed && f.hasPre && op.Res < f.preMax {
		fc.violate(fmt.Sprintf(
			"p%d post-fence %v took effect before pre-fence %v (fence at %d)",
			fp.proc, op, f.preOp, f.op.Res))
	}
}

// advance retires fences no future event can implicate: completed, all
// pre-fence writes accounted for, and the watermark past the latest
// pre-fence effect (every future completion resolves at or after the
// watermark, so it cannot land before preMax).
func (fc *onlineFence) advance(safe int64) {
	for _, fp := range fc.procList {
		kept := fp.fences[:0]
		for _, f := range fp.fences {
			if f.completed && f.prePending == 0 && safe > f.preMax {
				fc.free = append(fc.free, f)
				continue
			}
			kept = append(kept, f)
		}
		for i := len(kept); i < len(fp.fences); i++ {
			fp.fences[i] = nil
		}
		fp.fences = kept
	}
}

var (
	_ trace.Sink     = (*Online)(nil)
	_ trace.Advancer = (*Online)(nil)
)
