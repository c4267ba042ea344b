package consistency

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestValidHistories(t *testing.T) {
	cases := []map[string][]uint64{
		{"a": {1, 2}, "b": {1, 2}},
		{"a": {1}, "b": {2, 1}, "c": {2, 1}},
		{"a": {1, 2, 3}, "b": {2}, "c": {1, 3}},
		{"a": {}, "b": nil},
		{"a": {5}},
	}
	for i, h := range cases {
		if err := CheckCoherent(h); err != nil {
			t.Errorf("case %d: valid history rejected: %v", i, err)
		}
	}
}

func TestDuplicateApplyDetected(t *testing.T) {
	// The Galactica "1, 2, 1" shape.
	err := CheckCoherent(map[string][]uint64{"observer": {1, 2, 1}})
	if err == nil {
		t.Fatal("1,2,1 accepted")
	}
	var v *Violation
	if !errors.As(err, &v) || v.Kind != "duplicate-apply" {
		t.Fatalf("wrong violation: %v", err)
	}
	if !strings.Contains(v.Error(), "observer") {
		t.Fatalf("violation lacks context: %v", v)
	}
}

func TestOrderingCycleDetected(t *testing.T) {
	// Two observers disagreeing on the order of the same two writes.
	err := CheckCoherent(map[string][]uint64{
		"a": {1, 2},
		"b": {2, 1},
	})
	if err == nil {
		t.Fatal("contradictory orders accepted")
	}
	var v *Violation
	if !errors.As(err, &v) || v.Kind != "ordering-cycle" {
		t.Fatalf("wrong violation kind: %v", err)
	}
}

func TestThreeWayCycle(t *testing.T) {
	err := CheckCoherent(map[string][]uint64{
		"a": {1, 2},
		"b": {2, 3},
		"c": {3, 1},
	})
	if err == nil {
		t.Fatal("3-cycle accepted")
	}
}

// TestSubsequencesOfRandomOrderAlwaysValid: histories produced by
// sampling subsequences of one random total order must always pass.
func TestSubsequencesOfRandomOrderAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		order := rng.Perm(n)
		histories := make(map[string][]uint64)
		for o := 0; o < 4; o++ {
			var h []uint64
			for _, v := range order {
				if rng.Intn(2) == 0 {
					h = append(h, uint64(v+1))
				}
			}
			histories[string(rune('a'+o))] = h
		}
		if err := CheckCoherent(histories); err != nil {
			t.Fatalf("seed %d: valid subsequence histories rejected: %v", seed, err)
		}
	}
}

func TestConvergence(t *testing.T) {
	if err := CheckConvergence(map[string]uint64{"a": 5, "b": 5, "c": 5}); err != nil {
		t.Fatal(err)
	}
	err := CheckConvergence(map[string]uint64{"a": 5, "b": 6})
	if err == nil {
		t.Fatal("divergence accepted")
	}
	var v *Violation
	if !errors.As(err, &v) || v.Kind != "divergence" {
		t.Fatalf("wrong violation: %v", err)
	}
	if err := CheckConvergence(nil); err != nil {
		t.Fatal("empty finals should pass")
	}
}

func TestEmptyHistories(t *testing.T) {
	if err := CheckCoherent(nil); err != nil {
		t.Fatalf("nil histories: %v", err)
	}
	if err := CheckCoherent(map[string][]uint64{}); err != nil {
		t.Fatalf("empty map: %v", err)
	}
	if err := CheckCoherent(map[string][]uint64{"a": nil, "b": {}}); err != nil {
		t.Fatalf("empty per-node histories: %v", err)
	}
	if err := CheckConvergence(nil); err != nil {
		t.Fatalf("empty finals: %v", err)
	}
}

func TestSingleNodeAlwaysCoherent(t *testing.T) {
	// One observer imposes no cross-node constraints: any duplicate-free
	// sequence is trivially a total order of itself.
	if err := CheckCoherent(map[string][]uint64{"a": {5, 3, 9, 1}}); err != nil {
		t.Fatalf("single node: %v", err)
	}
	// ... but a within-history duplicate is still the A...A shape.
	if err := CheckCoherent(map[string][]uint64{"a": {5, 3, 5}}); err == nil {
		t.Fatal("single-node A...A not caught")
	}
}

func TestInterleavedDuplicatesAcrossNodes(t *testing.T) {
	// The same value at different NODES is normal (every replica applies
	// every write once); only a repeat within one node's history is a
	// violation.
	ok := map[string][]uint64{
		"a": {1, 2, 3},
		"b": {1, 2, 3},
		"c": {2, 3},
	}
	if err := CheckCoherent(ok); err != nil {
		t.Fatalf("cross-node duplicates flagged: %v", err)
	}
	bad := map[string][]uint64{
		"a": {1, 2, 3},
		"b": {1, 2, 1, 3},
	}
	err := CheckCoherent(bad)
	if err == nil {
		t.Fatal("interleaved within-node duplicate not caught")
	}
	if v := err.(*Violation); v.Kind != "duplicate-apply" {
		t.Fatalf("kind = %q, want duplicate-apply", v.Kind)
	}
}

// TestCheckCoherentShapes pins the checker and the brute-force oracle
// on canonical shapes, including the two that need the transitive
// closure of adjacent-pair edges: a sparse history over a long chain
// (consistent) and a cycle through a diamond (inconsistent).
func TestCheckCoherentShapes(t *testing.T) {
	cases := []struct {
		name string
		h    map[string][]uint64
		want bool
	}{
		{"empty", map[string][]uint64{}, true},
		{"single", map[string][]uint64{"a": {1, 2, 3}}, true},
		{"subsequences", map[string][]uint64{"a": {1, 2, 3}, "b": {1, 3}, "c": {2, 3}}, true},
		{"two-cycle", map[string][]uint64{"a": {1, 2}, "b": {2, 1}}, false},
		{"aba", map[string][]uint64{"a": {1, 2, 1}}, false},
		{"three-cycle", map[string][]uint64{"a": {1, 2}, "b": {2, 3}, "c": {3, 1}}, false},
		{"long-chain", map[string][]uint64{"a": {1, 2, 3, 4, 5}, "b": {2, 4}, "c": {1, 5}}, true},
		{"diamond-cycle", map[string][]uint64{"a": {1, 2, 4}, "b": {1, 3, 4}, "c": {4, 1}}, false},
		{"repeated-edges", map[string][]uint64{"a": {1, 2, 3}, "b": {1, 2, 3}, "c": {1, 2, 3}, "d": {2, 3}}, true},
	}
	for _, tc := range cases {
		if got := CheckCoherent(tc.h) == nil; got != tc.want {
			t.Errorf("%s: CheckCoherent = %v, want %v", tc.name, got, tc.want)
		}
		if got := BruteCheckCoherent(tc.h); got != tc.want {
			t.Errorf("%s: brute = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCheckCoherentDeterministicDetail: the violation text must not
// depend on map iteration order — the chaos tools print it, and two
// runs of the same seed must print the same thing.
func TestCheckCoherentDeterministicDetail(t *testing.T) {
	for _, h := range []map[string][]uint64{
		{"node0": {1, 2, 3, 4, 5, 6}, "node1": {6, 5, 4, 3, 2, 1}},
		{"node2": {7, 1, 7}, "node0": {3, 4, 3}, "node1": {5, 6, 5}},
		{"c": {3, 1}, "a": {1, 2}, "b": {2, 3}, "d": {9, 8}, "e": {8, 9}},
	} {
		msgs := make(map[string]bool)
		for i := 0; i < 200; i++ {
			err := CheckCoherent(h)
			if err == nil {
				t.Fatalf("%v accepted", h)
			}
			msgs[err.Error()] = true
		}
		if len(msgs) != 1 {
			t.Errorf("%v: %d distinct violation messages in 200 calls, want 1", h, len(msgs))
		}
	}
	err := CheckCoherent(map[string][]uint64{"node0": {1, 2, 3, 4, 5, 6}, "node1": {6, 5, 4, 3, 2, 1}})
	want := "coherence violation (ordering-cycle): values [5 6] admit no total order (each is observed before the next, and 6 before 5)"
	if err.Error() != want {
		t.Errorf("got %q\nwant %q", err, want)
	}
}

// TestCheckCoherentLongHistories: histories far past the brute-force
// range stay cheap (adjacent-pair edges, not all pairs) and a single
// inverted pair deep inside them is still found.
func TestCheckCoherentLongHistories(t *testing.T) {
	const n = 20000
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i + 1)
	}
	b := append([]uint64(nil), a...)
	if err := CheckCoherent(map[string][]uint64{"a": a, "b": b}); err != nil {
		t.Fatalf("identical long histories rejected: %v", err)
	}
	b[n/2], b[n/2+1] = b[n/2+1], b[n/2]
	err := CheckCoherent(map[string][]uint64{"a": a, "b": b})
	var v *Violation
	if !errors.As(err, &v) || v.Kind != "ordering-cycle" {
		t.Fatalf("inverted pair in long histories: got %v", err)
	}
}
