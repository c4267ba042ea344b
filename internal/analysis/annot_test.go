package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// checkModule loads the module's single package "p" and runs the full
// suite over it.
func checkModule(t *testing.T, src string) []Diagnostic {
	t.Helper()
	root := writeModule(t, map[string]string{
		"go.mod": tinyGoMod,
		"p/p.go": src,
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatal(err)
	}
	return Check(pkg)
}

func TestAnnotationSuppressesSameLine(t *testing.T) {
	diags := checkModule(t, `package p

import "time"

var T = time.Now() //tgvet:allow walltime(host-side stamp)
`)
	if len(diags) != 0 {
		t.Fatalf("want suppression, got %v", diags)
	}
}

func TestAnnotationStackedStandalone(t *testing.T) {
	// Two stacked standalone annotations must both reach the code line
	// below them, not each other.
	diags := checkModule(t, `package p

import (
	"math/rand"
	"time"
)

//tgvet:allow walltime(host-side stamp)
//tgvet:allow globalrand(legacy seeding, migrating next PR)
var T = time.Now().UnixNano() + rand.Int63()
`)
	if len(diags) != 0 {
		t.Fatalf("want both diagnostics suppressed, got %v", diags)
	}
}

func TestAnnotationWrongAnalyzerDoesNotSuppress(t *testing.T) {
	diags := checkModule(t, `package p

import "time"

var T = time.Now() //tgvet:allow maporder(wrong analyzer for this line)
`)
	if len(diags) != 1 || diags[0].Analyzer != "walltime" {
		t.Fatalf("want surviving walltime diagnostic, got %v", diags)
	}
}

func TestAnnotationMissingReasonIsMalformed(t *testing.T) {
	diags := checkModule(t, `package p

import "time"

var T = time.Now() //tgvet:allow walltime()
`)
	var kinds []string
	for _, d := range diags {
		kinds = append(kinds, d.Analyzer)
	}
	// The broken annotation must not suppress, and must itself report.
	if len(diags) != 2 || kinds[0] != "tgvet" && kinds[1] != "tgvet" {
		t.Fatalf("want malformed-annotation + walltime diagnostics, got %v", diags)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "tgvet" && strings.Contains(d.Message, "malformed annotation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing malformed-annotation diagnostic: %v", diags)
	}
}

func TestAnnotationUnknownAnalyzerIsMalformed(t *testing.T) {
	diags := checkModule(t, `package p

//tgvet:allow warptime(no such analyzer)
func f() {}
`)
	if len(diags) != 1 || diags[0].Analyzer != "tgvet" ||
		!strings.Contains(diags[0].Message, "unknown analyzer") {
		t.Fatalf("want unknown-analyzer diagnostic, got %v", diags)
	}
}

func TestTaintAllowOnSourceStopsOnlyTheChain(t *testing.T) {
	// An allow naming taint on a wall-clock line kills the chain above
	// it, but the direct finding carries the walltime tag and survives.
	diags := checkModule(t, `package p

import "time"

func stamp() int64 {
	return time.Now().UnixNano() //tgvet:allow taint(callers may read it)
}

func step() int64 { return stamp() }
`)
	if len(diags) != 1 || diags[0].Analyzer != "walltime" || diags[0].Line != 6 {
		t.Fatalf("want only the walltime diagnostic on line 6, got %v", diags)
	}
}

func TestAnnotationAboveDoesNotLeakFurther(t *testing.T) {
	// A standalone annotation covers only the first code line below it.
	diags := checkModule(t, `package p

import "time"

//tgvet:allow walltime(covers only U)
var U = time.Now()
var V = time.Now()
`)
	if len(diags) != 1 || diags[0].Line != 7 {
		t.Fatalf("want one surviving diagnostic on line 7, got %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "walltime", File: "p/p.go", Line: 3, Col: 9, Message: "m"}
	if got := d.String(); got != "p/p.go:3:9: walltime: m" {
		t.Fatalf("String() = %q", got)
	}
}

func TestAnnotationOrphanedStandalone(t *testing.T) {
	// A standalone annotation followed by a blank line (or nothing at
	// all) attaches to no code: it must be reported, not silently kept
	// as a dead suppression that springs back to life when code moves
	// under it.
	diags := checkModule(t, `package p

func f() {}

//tgvet:allow walltime(dangling; nothing below to suppress)

`)
	if len(diags) != 1 || diags[0].Analyzer != "tgvet" ||
		!strings.Contains(diags[0].Message, "orphaned") {
		t.Fatalf("want one orphaned-annotation diagnostic, got %v", diags)
	}
	if diags[0].Line != 5 {
		t.Errorf("orphan reported at line %d, want 5", diags[0].Line)
	}

	// Followed by a comment line: still orphaned (comments are not code).
	diags = checkModule(t, `package p

//tgvet:allow walltime(attaches to a comment, which is no code)
// just a comment
func f() {}
`)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "orphaned") {
		t.Fatalf("want orphaned diagnostic for comment target, got %v", diags)
	}

	// Directly above code: not orphaned, still suppresses.
	diags = checkModule(t, `package p

import "time"

//tgvet:allow walltime(host-side stamp)
var T = time.Now()
`)
	if len(diags) != 0 {
		t.Fatalf("annotation above code must suppress, got %v", diags)
	}
}
