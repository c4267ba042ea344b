package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module from name->content pairs
// and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const tinyGoMod = "module example.com/tiny\n\ngo 1.22\n"

func TestRunFindsViolationsWithRelativePaths(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": tinyGoMod,
		"pkg/clock.go": `package pkg

import "time"

func Stamp() time.Time { return time.Now() }
`,
	})
	diags, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "walltime" || d.File != "pkg/clock.go" || d.Line != 5 {
		t.Fatalf("unexpected diagnostic: %+v", d)
	}
}

func TestRunPatternForms(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":        tinyGoMod,
		"a/a.go":        "package a\n\nimport \"time\"\n\nvar T = time.Now()\n",
		"b/b.go":        "package b\n",
		"b/sub/s.go":    "package sub\n\nimport \"time\"\n\nvar T = time.Now()\n",
		"testdata/x.go": "package x\n\nimport \"time\"\n\nvar T = time.Now()\n",
	})
	cases := []struct {
		patterns []string
		want     int
	}{
		{nil, 2},                    // default ./... — and testdata is skipped
		{[]string{"./..."}, 2},      //
		{[]string{"./a"}, 1},        // explicit directory
		{[]string{"a"}, 1},          // without ./
		{[]string{"./b/..."}, 1},    // subtree pattern
		{[]string{"./a", "./a"}, 1}, // deduplicated
	}
	for _, c := range cases {
		diags, err := Run(root, c.patterns)
		if err != nil {
			t.Fatalf("%v: %v", c.patterns, err)
		}
		if len(diags) != c.want {
			t.Errorf("patterns %v: got %d diagnostics, want %d", c.patterns, len(diags), c.want)
		}
	}
	if _, err := Run(root, []string{"./nonexistent"}); err == nil {
		t.Error("missing directory: want error")
	}
}

func TestRunRejectsUnparseableSource(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":     tinyGoMod,
		"bad/bad.go": "package bad\n\nfunc {",
	})
	if _, err := Run(root, nil); err == nil {
		t.Fatal("want parse error, got nil")
	}
}

func TestLoaderImportCycle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": tinyGoMod,
		"a/a.go": "package a\n\nimport _ \"example.com/tiny/b\"\n",
		"b/b.go": "package b\n\nimport _ \"example.com/tiny/a\"\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// A module-level import cycle must not recurse forever. The cycle
	// itself surfaces as a (lenient) type error, not a load failure —
	// go build owns compile errors — so the load still succeeds.
	pkg, err := l.LoadDir(filepath.Join(root, "a"))
	if err != nil || pkg == nil {
		t.Fatalf("cyclic module load: pkg=%v err=%v", pkg, err)
	}
	// Re-entering a directory that is mid-load reports the cycle.
	dirA := filepath.Join(root, "a")
	l2, _ := NewLoader(root)
	l2.busy[dirA] = true
	if _, err := l2.LoadDir(dirA); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want import-cycle error, got %v", err)
	}
}

// TestLoaderHonoursBuildConstraints: files the go command would not
// build are not part of a package. A directory holding two
// //go:build ignore main programs (each one `go run`s alone) is no
// package at all, and one beside a real package file leaves that
// package as it is.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	prog := func(n string) string {
		return "//go:build ignore\n\npackage main\n\nfunc main() { println(" + n + ") }\n"
	}
	root := writeModule(t, map[string]string{
		"go.mod":         tinyGoMod,
		"scripts/one.go": prog("1"),
		"scripts/two.go": prog("2"),
		"lib/lib.go":     "package lib\n\n// X is exported.\nvar X = 1\n",
		"lib/gen.go":     prog("3"),
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Walk(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(root, "lib")}; len(dirs) != 1 || dirs[0] != want[0] {
		t.Fatalf("Walk = %v, want %v: ignore-tagged programs make no package", dirs, want)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "lib"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 || pkg.Types.Name() != "lib" {
		t.Fatalf("lib loaded %d files as package %q, want 1 file of package lib", len(pkg.Files), pkg.Types.Name())
	}
}

func TestFindModuleRootFails(t *testing.T) {
	if _, err := FindModuleRoot("/"); err == nil {
		t.Error("want error outside any module")
	}
}

// chdir moves the process into dir for the duration of the test (Main
// resolves patterns against the working directory, like go vet).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

func TestMainExitCodes(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":     tinyGoMod,
		"dirty/d.go": "package dirty\n\nimport \"time\"\n\nvar T = time.Now()\n",
		"clean/c.go": "package clean\n\nfunc Fine() {}\n",
	})
	chdir(t, root)
	var out, errb bytes.Buffer

	if code := Main([]string{"./clean"}, &out, &errb); code != ExitClean {
		t.Errorf("clean package: exit %d, want %d (stderr: %s)", code, ExitClean, errb.String())
	}
	if code := Main([]string{"./dirty"}, &out, &errb); code != ExitDiags {
		t.Errorf("dirty package: exit %d, want %d", code, ExitDiags)
	}
	if !strings.Contains(out.String(), "walltime") {
		t.Errorf("diagnostic output missing analyzer name: %q", out.String())
	}
	out.Reset()
	if code := Main([]string{"./no/such/dir"}, &out, &errb); code != ExitError {
		t.Errorf("bad pattern: exit %d, want %d", code, ExitError)
	}
	if code := Main([]string{"-definitely-not-a-flag"}, &out, &errb); code != ExitError {
		t.Errorf("bad flag: exit %d, want %d", code, ExitError)
	}
}

func TestMainJSONOutput(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":     tinyGoMod,
		"dirty/d.go": "package dirty\n\nimport \"time\"\n\nvar T = time.Now()\n",
		"clean/c.go": "package clean\n\nfunc Fine() {}\n",
	})
	chdir(t, root)
	var out, errb bytes.Buffer
	if code := Main([]string{"-json", "./dirty"}, &out, &errb); code != ExitDiags {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, ExitDiags, errb.String())
	}
	var diags []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 1 || diags[0].Analyzer != "walltime" || diags[0].File != "dirty/d.go" {
		t.Fatalf("unexpected JSON diagnostics: %+v", diags)
	}

	// A clean run still emits a JSON array (an empty one).
	out.Reset()
	if code := Main([]string{"-json", "./clean"}, &out, &errb); code != ExitClean {
		t.Fatalf("clean: exit %d, want %d", code, ExitClean)
	}
	var empty []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &empty); err != nil || len(empty) != 0 {
		t.Fatalf("clean JSON run: err=%v diags=%v", err, empty)
	}
}

func TestMainList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-list"}, &out, &errb); code != ExitClean {
		t.Fatalf("-list: exit %d", code)
	}
	for _, a := range Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
}

func TestRunCrossPackageTaint(t *testing.T) {
	// The whole module joins the call graph even when only one package
	// is checked: a wall-clock wrapper in package a taints its caller in
	// package b, and checking ./b alone must still see the chain.
	root := writeModule(t, map[string]string{
		"go.mod": tinyGoMod,
		"a/a.go": `package a

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		"b/b.go": `package b

import "example.com/tiny/a"

func Step() int64 { return a.Stamp() }
`,
	})
	diags, err := Run(root, []string{"./b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "taint" || diags[0].File != "b/b.go" {
		t.Fatalf("want one cross-package taint diagnostic in b/b.go, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "transitively reaches") ||
		!strings.Contains(diags[0].Message, "time.Now") {
		t.Fatalf("taint message lacks witness chain: %s", diags[0].Message)
	}
	// The direct source in a is a walltime finding when a is checked.
	diags, err = Run(root, []string{"./a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "walltime" {
		t.Fatalf("want walltime diagnostic in a, got %v", diags)
	}
}

func TestMainAudit(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": tinyGoMod,
		"p/p.go": `package p

import "time"

var T = time.Now() //tgvet:allow walltime(host-side stamp for the audit test)
`,
	})
	chdir(t, root)
	var out, errb bytes.Buffer
	if code := Main([]string{"-audit"}, &out, &errb); code != ExitClean {
		t.Fatalf("-audit: exit %d (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "p/p.go:5: walltime: host-side stamp for the audit test") {
		t.Fatalf("audit listing missing entry: %q", out.String())
	}
	// JSON form round-trips.
	out.Reset()
	if code := Main([]string{"-audit", "-json"}, &out, &errb); code != ExitClean {
		t.Fatalf("-audit -json: exit %d", code)
	}
	var entries []AllowEntry
	if err := json.Unmarshal(out.Bytes(), &entries); err != nil {
		t.Fatalf("audit output is not JSON: %v\n%s", err, out.String())
	}
	if len(entries) != 1 || entries[0].Analyzer != "walltime" || entries[0].Line != 5 {
		t.Fatalf("unexpected audit entries: %+v", entries)
	}
}
