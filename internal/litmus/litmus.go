// Package litmus is a declarative litmus-test harness for the
// Telegraphos memory model: each test is a tiny multi-threaded program
// over a handful of shared words (the classic shapes — store buffering,
// message passing, load buffering, coherent read-read, IRIW, atomic
// races, and the §2.4 two-writers-observer scenario), compiled onto
// simulated cluster nodes and executed under a chosen coherence
// protocol, shard count, and link-fault schedule.
//
// A test declares which final outcomes the Telegraphos protocols forbid
// (checked every run) and, optionally, an anomalous outcome a baseline
// protocol is expected to witness — the Galactica ring's "1, 2, 1"
// sequence, which no consistency model admits (§2.4). Independently of
// the declared outcomes, every run's recorded trace is fed through the
// linearizability and fence-order checkers (internal/linearize), so a
// protocol bug shows up even in outcomes the test author did not
// anticipate.
package litmus

import (
	"fmt"
	"sort"
	"strings"

	"telegraphos/internal/sim"
)

// Region selects where a test's locations live.
type Region int

// Regions.
const (
	// Plain allocates each location as an unreplicated shared word on its
	// own passive home node: single-copy semantics, remote reads block.
	Plain Region = iota
	// Coherent places all locations on one replicated page managed by the
	// protocol under test.
	Coherent
)

// OpCode enumerates litmus statement operations.
type OpCode int

// Statement opcodes.
const (
	// St stores Val to location Loc.
	St OpCode = iota
	// Ld loads Loc into output register Out.
	Ld
	// LdWait polls Loc until it reads non-zero (bounded); Out gets 1 if
	// the wait succeeded, 0 if the bound expired.
	LdWait
	// Fence is a MEMORY_BARRIER (§2.3.5).
	Fence
	// FAI fetch&increments Loc into Out.
	FAI
	// FAS fetch&stores Val at Loc, previous value into Out.
	FAS
	// CAS compare&swaps Loc to Val if it equals Exp, previous into Out.
	CAS
	// Delay computes for D.
	Delay
)

// Stmt is one statement of a litmus thread.
type Stmt struct {
	Op  OpCode
	Loc int
	Val uint64
	Exp uint64 // CAS comparand
	Out int    // output register index (Ld/LdWait/FAI/FAS/CAS)
	D   sim.Time
}

// Thread is one node's program.
type Thread []Stmt

// Watch names an observation point: the protocol manager on Thread's
// node records every value applied at location Loc (§2.4's "third
// processor watching the page").
type Watch struct {
	Thread int
	Loc    int
}

// Outcome is one run's observable result, fed to the Forbidden/Witness
// predicates and rendered into the sweep histograms.
type Outcome struct {
	// R holds the output registers (zero-initialized).
	R []uint64
	// Final holds each location's value after quiescence, read from the
	// authoritative copy.
	Final []uint64
	// ABA reports whether the watched applied-value sequence contains the
	// shape a…b…a (a ≠ b) — Galactica's "1, 2, 1" (only with a Watch).
	ABA bool
}

// String renders a canonical histogram key.
func (o Outcome) String() string {
	var b strings.Builder
	for i, v := range o.R {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "r%d=%d", i, v)
	}
	for i, v := range o.Final {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "m%d=%d", i, v)
	}
	if o.ABA {
		b.WriteString(" aba")
	}
	return b.String()
}

// Test is one declarative litmus test.
type Test struct {
	// Name is the test's short identifier (e.g. "SB+fence").
	Name string
	// Doc is a one-line description.
	Doc string
	// Region selects plain or coherent locations.
	Region Region
	// NLocs is the number of shared words.
	NLocs int
	// NOut is the number of output registers.
	NOut int
	// Threads are the per-node programs.
	Threads []Thread
	// Stagger delays thread t's start by Stagger[t] × the run's Variant,
	// sweeping relative timings (nil = simultaneous starts).
	Stagger []sim.Time
	// HomeThread, when ≥ 0, homes the coherent page on that thread's node
	// instead of a separate passive home (the §2.4 observer-owns-the-page
	// shape). Ignored for Plain tests.
	HomeThread int
	// Ring is the Galactica ring order as thread indices (nil = threads
	// in order, then the home node). Ignored for other protocols.
	Ring []int
	// Watch, when non-nil, records applied values at one node (Update and
	// Galactica only).
	Watch *Watch
	// Protocols restricts the sweep (nil = all).
	Protocols []Protocol
	// Forbidden flags outcomes the Telegraphos protocols must never
	// produce. A hit under Update or Invalidate is a violation; under the
	// Galactica baseline it is the §2.4 anomaly, reported not failed.
	Forbidden func(Outcome) bool
	// Witness flags an outcome some sweep configuration is expected to
	// reach at least once (per protocol that lists it in WitnessUnder).
	Witness func(Outcome) bool
	// WitnessUnder lists the protocols whose sweep must hit Witness.
	WitnessUnder []Protocol
}

// runsUnder reports whether the test participates under p.
func (t *Test) runsUnder(p Protocol) bool {
	if len(t.Protocols) == 0 {
		return true
	}
	for _, q := range t.Protocols {
		if q == p {
			return true
		}
	}
	return false
}

// needsWitness reports whether p's sweep must reach the witness outcome.
func (t *Test) needsWitness(p Protocol) bool {
	if t.Witness == nil {
		return false
	}
	for _, q := range t.WitnessUnder {
		if q == p {
			return true
		}
	}
	return false
}

// hasABA reports whether vals contains the shape a…b…a with a ≠ b.
func hasABA(vals []uint64) bool {
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[j] == vals[i] {
				continue
			}
			for k := j + 1; k < len(vals); k++ {
				if vals[k] == vals[i] {
					return true
				}
			}
		}
	}
	return false
}

// sortedKeys returns m's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	//tgvet:allow maporder(keys are sorted by sort.Strings below before use)
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
