package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTallyBasics(t *testing.T) {
	var ty Tally
	for _, v := range []float64{5, 1, 3, 2, 4} {
		ty.Add(v)
	}
	if ty.N() != 5 {
		t.Fatalf("N = %d", ty.N())
	}
	if ty.Mean() != 3 {
		t.Fatalf("Mean = %g", ty.Mean())
	}
	if ty.Min() != 1 || ty.Max() != 5 {
		t.Fatalf("Min/Max = %g/%g", ty.Min(), ty.Max())
	}
	if ty.Median() != 3 {
		t.Fatalf("Median = %g", ty.Median())
	}
}

func TestTallyEmpty(t *testing.T) {
	var ty Tally
	if ty.Mean() != 0 || ty.Min() != 0 || ty.Max() != 0 || ty.Percentile(50) != 0 {
		t.Fatal("empty tally should report zeros")
	}
}

func TestTallyAddAfterSort(t *testing.T) {
	var ty Tally
	ty.Add(10)
	_ = ty.Min() // forces sort
	ty.Add(1)
	if ty.Min() != 1 {
		t.Fatalf("Min after late Add = %g, want 1", ty.Min())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var ty Tally
	for i := 1; i <= 4; i++ {
		ty.Add(float64(i))
	}
	if got := ty.Percentile(0); got != 1 {
		t.Fatalf("P0 = %g", got)
	}
	if got := ty.Percentile(100); got != 4 {
		t.Fatalf("P100 = %g", got)
	}
	if got := ty.Percentile(50); got != 2.5 {
		t.Fatalf("P50 = %g, want 2.5", got)
	}
}

func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var ty Tally
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			ty.Add(v)
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return ty.Percentile(pa) <= ty.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanWithinBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var ty Tally
		for _, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
			ty.Add(v)
		}
		if ty.N() == 0 {
			return true
		}
		return ty.Mean() >= ty.Min()-1e-9 && ty.Mean() <= ty.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterSet(t *testing.T) {
	cs := NewCounterSet()
	cs.Inc("reads")
	cs.Add("writes", 3)
	cs.Inc("reads")
	if cs.Get("reads") != 2 || cs.Get("writes") != 3 {
		t.Fatalf("counts wrong: %s", cs)
	}
	if cs.Get("absent") != 0 {
		t.Fatal("absent counter should read 0")
	}
	names := cs.Names()
	if len(names) != 2 || names[0] != "reads" || names[1] != "writes" {
		t.Fatalf("names order %v", names)
	}
	if got := cs.String(); got != "reads=2 writes=3" {
		t.Fatalf("String = %q", got)
	}
}

// TestCounterSetIncLazy: bumps through lazily resolved cells render
// exactly as bumps by name, first-use order included, bound block or
// not.
func TestCounterSetIncLazy(t *testing.T) {
	labels := NewCounterLabels([]string{"rx"})
	var fixed [1]int64
	cs, ref := NewCounterSet(), NewCounterSet()
	cs.Bind(labels, fixed[:])
	ref.Cell("rx")
	var late, early, rx *int64
	for i := 0; i < 3; i++ {
		cs.Inc("plain")
		ref.Inc("plain")
		if i > 0 {
			cs.IncLazy(&late, "late")
			ref.Inc("late")
		}
		cs.IncLazy(&early, "early")
		ref.Inc("early")
		cs.IncLazy(&rx, "rx")
		ref.Inc("rx")
	}
	if got, want := cs.String(), ref.String(); got != want || got != "rx=3 plain=3 early=3 late=2" {
		t.Fatalf("String = %q, by-name reference %q", got, want)
	}
	if rx != &fixed[0] || early != cs.Cell("early") {
		t.Fatal("IncLazy resolved a cell other than Cell's")
	}
}

// TestCounterSetBind: a bound block of fixed counters reads and
// renders exactly as if its counters had been created first through the
// map: label order ahead of later counters, zero cells hidden, and Cell
// resolving a fixed name to its cell rather than a new map entry.
func TestCounterSetBind(t *testing.T) {
	labels := NewCounterLabels([]string{"rx", "tx", "ops"})
	var cells [3]int64
	cs := NewCounterSet()
	cs.Bind(labels, cells[:])
	ref := NewCounterSet()
	for _, n := range []string{"rx", "tx", "ops"} {
		ref.Cell(n)
	}
	for _, c := range []*CounterSet{cs, ref} {
		c.Inc("late")
		c.Add("ops", 4)
		c.Inc("rx")
	}
	cells[0]++ // bumped through the owner's array
	*ref.Cell("rx")++
	if got, want := cs.String(), ref.String(); got != want || got != "rx=2 ops=4 late=1" {
		t.Fatalf("String = %q, map-only reference %q", got, want)
	}
	if got := fmt.Sprint(cs.Names()); got != "[rx ops late]" {
		t.Fatalf("Names = %s", got)
	}
	if cs.Get("rx") != 2 || cs.Get("tx") != 0 || cs.Get("late") != 1 || cs.Get("absent") != 0 {
		t.Fatalf("Get: rx %d tx %d late %d", cs.Get("rx"), cs.Get("tx"), cs.Get("late"))
	}
	if cs.Cell("tx") != &cells[1] || len(cs.counts) != 1 {
		t.Fatalf("Cell(tx) not the bound cell, or map holds %d entries", len(cs.counts))
	}
	for name, fn := range map[string]func(){
		"duplicate label": func() { NewCounterLabels([]string{"a", "a"}) },
		"short block":     func() { NewCounterSet().Bind(labels, cells[:2]) },
		"late bind":       func() { c := NewCounterSet(); c.Inc("x"); c.Bind(labels, cells[:]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSeriesFormat(t *testing.T) {
	s := Series{Name: "latency vs load", XLabel: "load", YLabel: "latency_us"}
	s.Add(0.1, 1.5)
	s.Add(0.2, 2.5)
	out := s.Format()
	if !strings.Contains(out, "latency vs load") || !strings.Contains(out, "0.2") {
		t.Fatalf("Format output missing content:\n%s", out)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
}
