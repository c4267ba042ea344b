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
	if ty.Sum() != 15 {
		t.Fatalf("Sum = %g", ty.Sum())
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
	want := math.Sqrt(2)
	if math.Abs(ty.StdDev()-want) > 1e-12 {
		t.Fatalf("StdDev = %g, want %g", ty.StdDev(), want)
	}
}

func TestTallyEmpty(t *testing.T) {
	var ty Tally
	if ty.Mean() != 0 || ty.Min() != 0 || ty.Max() != 0 || ty.StdDev() != 0 || ty.Percentile(50) != 0 {
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

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1.9, 2, 9.99, 10, 100} {
		h.Add(v)
	}
	if h.N() != 7 {
		t.Fatalf("N = %d", h.N())
	}
	under, over := h.Outliers()
	if under != 1 || over != 2 {
		t.Fatalf("outliers = %d/%d, want 1/2", under, over)
	}
	c0, lo, hi := h.Bucket(0)
	if c0 != 2 || lo != 0 || hi != 2 {
		t.Fatalf("bucket 0 = %d over [%g,%g)", c0, lo, hi)
	}
	c1, _, _ := h.Bucket(1)
	if c1 != 1 {
		t.Fatalf("bucket 1 = %d, want 1 (sample 2 belongs here)", c1)
	}
	c4, _, _ := h.Bucket(4)
	if c4 != 1 {
		t.Fatalf("bucket 4 = %d, want 1 (sample 9.99)", c4)
	}
}

func TestHistogramCountConservationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(-50, 50, 7)
		n := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		var total int64
		for i := 0; i < h.NumBuckets(); i++ {
			c, _, _ := h.Bucket(i)
			total += c
		}
		under, over := h.Outliers()
		return total+under+over == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for inverted range")
		}
	}()
	NewHistogram(5, 5, 3)
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
