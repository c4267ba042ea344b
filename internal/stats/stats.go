// Package stats provides the small measurement toolkit used by the
// Telegraphos simulator: sample tallies with percentiles, named counter
// sets, and (x, y) series for parameter sweeps.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tally accumulates float64 samples and reports summary statistics.
// The zero value is an empty tally ready to use.
type Tally struct {
	samples []float64
	sum     float64
	sorted  bool
}

// Add records one sample.
func (t *Tally) Add(v float64) {
	t.samples = append(t.samples, v)
	t.sum += v
	t.sorted = false
}

// N reports the number of samples.
func (t *Tally) N() int { return len(t.samples) }

// Mean reports the sample mean (0 for an empty tally).
func (t *Tally) Mean() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	return t.sum / float64(len(t.samples))
}

// Min reports the smallest sample (0 for an empty tally).
func (t *Tally) Min() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	t.ensureSorted()
	return t.samples[0]
}

// Max reports the largest sample (0 for an empty tally).
func (t *Tally) Max() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	t.ensureSorted()
	return t.samples[len(t.samples)-1]
}

// Percentile reports the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation.
func (t *Tally) Percentile(p float64) float64 {
	n := len(t.samples)
	if n == 0 {
		return 0
	}
	t.ensureSorted()
	if p <= 0 {
		return t.samples[0]
	}
	if p >= 100 {
		return t.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return t.samples[lo]
	}
	frac := rank - float64(lo)
	return t.samples[lo]*(1-frac) + t.samples[hi]*frac
}

// Median reports the 50th percentile.
func (t *Tally) Median() float64 { return t.Percentile(50) }

func (t *Tally) ensureSorted() {
	if !t.sorted {
		sort.Float64s(t.samples)
		t.sorted = true
	}
}

// String summarizes the tally for logs.
func (t *Tally) String() string {
	return fmt.Sprintf("n=%d mean=%.3g min=%.3g p50=%.3g p99=%.3g max=%.3g",
		t.N(), t.Mean(), t.Min(), t.Median(), t.Percentile(99), t.Max())
}

// CounterSet is an ordered collection of named int64 counters. Iteration
// (Names) follows first-use order, so reports are stable. A set may also
// carry one bound block of fixed counters (see Bind), which come first.
type CounterSet struct {
	order  []string
	counts map[string]*int64

	fixed      *CounterLabels
	fixedCells []int64
}

// CounterLabels is an immutable table of counter names, built once and
// shared by every set a component binds its fixed counters into.
type CounterLabels struct {
	names []string
	index map[string]int
}

// NewCounterLabels returns the label table for names, which must be
// distinct.
func NewCounterLabels(names []string) *CounterLabels {
	l := &CounterLabels{names: names, index: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := l.index[n]; dup {
			panic(fmt.Sprintf("stats: duplicate counter label %q", n))
		}
		l.index[n] = i
	}
	return l
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet { return &CounterSet{} }

// Bind attaches a block of fixed counters: cells[i] is the counter
// named by label i. The caller owns cells and bumps them directly, so a
// component with a fixed set of counters neither allocates a cell per
// counter nor grows the name map. Cell, Add, Inc and Get resolve the
// block's names to its cells, and Names and String list the block in
// label order ahead of the other counters, as if its counters had been
// created first. Bind must precede every other use of the set.
func (cs *CounterSet) Bind(labels *CounterLabels, cells []int64) {
	if len(cells) != len(labels.names) || cs.fixed != nil || len(cs.order) != 0 {
		panic("stats: Bind needs a fresh set and one cell per label")
	}
	cs.fixed, cs.fixedCells = labels, cells
}

// Cell returns the addressable cell behind counter name, creating it if
// needed. Hot paths resolve their cells once at construction and bump
// through the pointer, skipping the per-event map lookup; a cell that is
// never incremented stays invisible to Names/Get/String.
func (cs *CounterSet) Cell(name string) *int64 {
	// The map first: it never holds a bound name, and the names bumped
	// by name at run time are the map's.
	if c, ok := cs.counts[name]; ok {
		return c
	}
	if cs.fixed != nil {
		if i, ok := cs.fixed.index[name]; ok {
			return &cs.fixedCells[i]
		}
	}
	if cs.counts == nil {
		cs.counts = make(map[string]*int64)
	}
	c := new(int64)
	cs.counts[name] = c
	cs.order = append(cs.order, name)
	return c
}

// Add increments counter name by delta, creating it if needed.
func (cs *CounterSet) Add(name string, delta int64) { *cs.Cell(name) += delta }

// Inc increments counter name by one.
func (cs *CounterSet) Inc(name string) { *cs.Cell(name)++ }

// IncLazy increments counter name through *cell, resolving the cell
// with Cell on the first bump: the counter takes the same place in
// first-use order that Inc would give it, and every later bump skips
// the name lookup. *cell must be nil or name's cell in cs.
func (cs *CounterSet) IncLazy(cell **int64, name string) {
	if *cell == nil {
		cs.resolve(cell, name)
	}
	**cell++
}

// resolve is IncLazy's first bump, kept out of line so that IncLazy
// inlines into its callers.
//
//go:noinline
func (cs *CounterSet) resolve(cell **int64, name string) { *cell = cs.Cell(name) }

// Get reports counter name's value (0 if absent).
func (cs *CounterSet) Get(name string) int64 {
	if c, ok := cs.counts[name]; ok {
		return *c
	}
	if cs.fixed != nil {
		if i, ok := cs.fixed.index[name]; ok {
			return cs.fixedCells[i]
		}
	}
	return 0
}

// each calls fn for every nonzero counter: the bound block in label
// order, then the rest in first-use order. Zero-valued cells are
// skipped so pre-resolved but untouched counters don't clutter reports.
func (cs *CounterSet) each(fn func(name string, v int64)) {
	for i, v := range cs.fixedCells {
		if v != 0 {
			fn(cs.fixed.names[i], v)
		}
	}
	for _, n := range cs.order {
		if v := *cs.counts[n]; v != 0 {
			fn(n, v)
		}
	}
}

// Names lists nonzero counters in first-use order (the bound block
// first).
func (cs *CounterSet) Names() []string {
	names := make([]string, 0, len(cs.order))
	cs.each(func(n string, _ int64) { names = append(names, n) })
	return names
}

// String renders "a=1 b=2 ..." in Names order.
func (cs *CounterSet) String() string {
	var b strings.Builder
	cs.each(func(n string, v int64) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, v)
	})
	return b.String()
}

// Point is one (x, y) sample of a parameter sweep.
type Point struct{ X, Y float64 }

// Series is a named sequence of sweep points, e.g. "stall rate vs cache
// size". It is what the benchmark harness prints for each paper figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends one point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Format renders the series as an aligned two-column table.
func (s *Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	fmt.Fprintf(&b, "%-16s %s\n", s.XLabel, s.YLabel)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-16.6g %.6g\n", p.X, p.Y)
	}
	return b.String()
}
