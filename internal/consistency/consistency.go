// Package consistency checks observed value histories against the
// per-location coherence condition the paper's protocol guarantees
// (§2.3.3, §2.4): for each memory word there must exist a single total
// order of writes such that every node's observed sequence of applied
// values is a subsequence of it. Galactica's "1, 2, 1" is exactly a
// history with no such order.
//
// Values are assumed unique per write (the standard histories-checking
// convention; the protocol tests tag each write with writer<<32|seq).
package consistency

import (
	"fmt"
	"sort"
)

// Violation describes a coherence violation found in a set of histories.
type Violation struct {
	// Kind classifies the violation.
	Kind string
	// Detail is a human-readable explanation.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("coherence violation (%s): %s", v.Kind, v.Detail)
}

// CheckCoherent verifies that the per-node observed value sequences for
// one memory word are mutually consistent: some total order of the
// written values contains every history as a subsequence. It returns nil
// if such an order exists, or a *Violation.
//
// A duplicated value within one history (the A...A shape) is
// immediately inconsistent because writes are unique. Otherwise each
// history contributes one precedence edge per adjacent pair (a applied
// just before b), and by Szpilrajn extension the histories are
// consistent iff the union of those edges is acyclic. Within a
// duplicate-free history the adjacent-pair edges generate the same
// transitive precedence relation as the edges between every ordered
// pair, so one graph has a cycle iff the other does — at O(total
// history length) instead of quadratic cost.
//
// The verdict text is deterministic: histories are visited in sorted
// key order, values are numbered in first-seen order, and the cycle
// search follows edges in insertion order, so a given input always
// yields the same duplicate or the same cycle.
func CheckCoherent(histories map[string][]uint64) error {
	whos := make([]string, 0, len(histories))
	//tgvet:allow maporder(keys are sorted by sort.Strings below before use)
	for who := range histories {
		whos = append(whos, who)
	}
	sort.Strings(whos)

	// Duplicate detection within each history.
	for _, who := range whos {
		h := histories[who]
		seen := make(map[uint64]int, len(h))
		for i, v := range h {
			if j, dup := seen[v]; dup {
				return &Violation{
					Kind: "duplicate-apply",
					Detail: fmt.Sprintf("%s applied value %d twice (positions %d and %d): the A...A shape",
						who, v, j, i),
				}
			}
			seen[v] = i
		}
	}

	// Number the values in first-seen order and add one precedence edge
	// per adjacent pair.
	id := make(map[uint64]int)
	var vals []uint64
	var succ [][]int
	number := func(v uint64) int {
		n, ok := id[v]
		if !ok {
			n = len(vals)
			id[v] = n
			vals = append(vals, v)
			succ = append(succ, nil)
		}
		return n
	}
	for _, who := range whos {
		prev := -1
		for _, v := range histories[who] {
			n := number(v)
			if prev >= 0 {
				succ[prev] = append(succ[prev], n)
			}
			prev = n
		}
	}

	// Cycle detection: iterative DFS (colors: 0 white, 1 grey, 2 black);
	// path holds the grey values, next each one's next edge to follow.
	color := make([]uint8, len(vals))
	var path, next []int
	for root := range vals {
		if color[root] != 0 {
			continue
		}
		color[root] = 1
		path, next = append(path[:0], root), append(next[:0], 0)
		for len(path) > 0 {
			top := len(path) - 1
			u := path[top]
			if next[top] == len(succ[u]) {
				color[u] = 2
				path, next = path[:top], next[:top]
				continue
			}
			v := succ[u][next[top]]
			next[top]++
			switch color[v] {
			case 1:
				return cycleViolation(vals, path, v)
			case 0:
				color[v] = 1
				path, next = append(path, v), append(next, 0)
			}
		}
	}
	return nil
}

// cycleViolation reports the precedence cycle that closes when the DFS
// path (grey values, outermost first) reaches its own member v again.
func cycleViolation(vals []uint64, path []int, v int) *Violation {
	start := 0
	for path[start] != v {
		start++
	}
	cycle := make([]uint64, 0, len(path)-start)
	for _, n := range path[start:] {
		cycle = append(cycle, vals[n])
	}
	return &Violation{
		Kind: "ordering-cycle",
		Detail: fmt.Sprintf("values %v admit no total order (each is observed before the next, and %d before %d)",
			cycle, cycle[len(cycle)-1], cycle[0]),
	}
}

// CheckConvergence verifies that all final values are identical — the
// weaker guarantee Galactica provides (all copies converge even though
// intermediate observations may be invalid).
func CheckConvergence(finals map[string]uint64) error {
	var ref uint64
	var refWho string
	first := true
	for who, v := range finals {
		if first {
			ref, refWho, first = v, who, false
			continue
		}
		if v != ref {
			return &Violation{
				Kind:   "divergence",
				Detail: fmt.Sprintf("%s ended with %d but %s ended with %d", who, v, refWho, ref),
			}
		}
	}
	return nil
}
