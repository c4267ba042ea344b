// Package analysistest is the golden-test harness for the tgvet
// analyzers, in the spirit of golang.org/x/tools/go/analysis/analysistest
// but built only on the standard library. A testdata package marks the
// diagnostics it expects with trailing comments:
//
//	rng := rand.New(rand.NewSource(1)) // want "global math/rand"
//
// Each `// want "re"` comment holds one or more quoted regular
// expressions; every expectation must be matched by a diagnostic of the
// analyzer under test on that line, and every diagnostic must match an
// expectation — the harness fails the test in both directions. Lines
// carrying a //tgvet:allow annotation exercise the suppression path:
// they expect no diagnostic at all.
package analysistest

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"telegraphos/internal/analysis"
)

// wantRe extracts the `// want "..." "..."` tail of a source line.
// Expectations are Go string literals: double-quoted or backquoted
// (handy for patterns that themselves contain quotes).
var wantRe = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)$")

// quotedRe splits the quoted expectation list.
var quotedRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one `// want` entry.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the package in dir, runs analyzer a over it (with the full
// annotation/suppression pipeline), and compares the diagnostics
// against the package's // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	wants := parseWants(t, pkg)
	diags := analysis.Check(pkg, a)
	for _, d := range diags {
		if d.Analyzer == "tgvet" {
			// Annotation problems in testdata are authoring errors.
			t.Errorf("annotation error: %s", d)
			continue
		}
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmatched expectation that covers d.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants scans the package sources for // want comments.
func parseWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	files := make([]string, 0, len(pkg.Sources))
	//tgvet:allow maporder(collect-then-sort: the key slice is sorted on the next line)
	for filename := range pkg.Sources {
		files = append(files, filename)
	}
	sort.Strings(files)
	for _, filename := range files {
		src := pkg.Sources[filename]
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range quotedRe.FindAllString(m[1], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", filename, i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: filename, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// RunSuite applies Run for every (dir, analyzer) pair, with subtests
// named after the directories.
func RunSuite(t *testing.T, root string, pairs map[string]*analysis.Analyzer) {
	t.Helper()
	for sub, a := range pairs {
		t.Run(sub, func(t *testing.T) {
			Run(t, fmt.Sprintf("%s/%s", root, sub), a)
		})
	}
}
