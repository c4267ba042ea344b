package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Exit codes of the tgvet driver.
const (
	ExitClean = 0 // no unsuppressed diagnostics
	ExitDiags = 1 // at least one reportable diagnostic
	ExitError = 2 // usage error or load failure
)

// Main is the tgvet entry point (cmd/tgvet is a thin wrapper so the
// driver itself sits under test and the coverage ratchet). args are the
// command-line arguments after the program name; the return value is
// the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tgvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit results as a JSON array (machine-readable)")
	list := fs.Bool("list", false, "list the analyzers and their invariants, then exit")
	audit := fs.Bool("audit", false, "list every //tgvet:allow annotation with its reason, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tgvet [-json] [-list] [-audit] [packages]\n\n"+
			"tgvet statically checks the simulator's determinism and shard-safety\n"+
			"contracts. Packages are directories or ./... patterns; default ./...\n\n"+
			"exit codes: 0 clean (no findings; always 0 after -audit), 1 findings,\n"+
			"2 usage or load error\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}
	if *list {
		for _, a := range Analyzers() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return ExitClean
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "tgvet: %v\n", err)
		return ExitError
	}
	if *audit {
		entries, err := Audit(cwd, fs.Args())
		if err != nil {
			fmt.Fprintf(stderr, "tgvet: %v\n", err)
			return ExitError
		}
		if *jsonOut {
			if err := encodeJSON(stdout, entries, []AllowEntry{}); err != nil {
				fmt.Fprintf(stderr, "tgvet: %v\n", err)
				return ExitError
			}
		} else {
			for _, e := range entries {
				fmt.Fprintln(stdout, e)
			}
		}
		return ExitClean
	}
	diags, err := Run(cwd, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "tgvet: %v\n", err)
		return ExitError
	}
	if *jsonOut {
		if err := encodeJSON(stdout, diags, []Diagnostic{}); err != nil {
			fmt.Fprintf(stderr, "tgvet: %v\n", err)
			return ExitError
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return ExitDiags
	}
	return ExitClean
}

// encodeJSON writes v as indented JSON, substituting empty for a nil
// slice so consumers always see an array.
func encodeJSON[T any](w io.Writer, v []T, empty []T) error {
	if v == nil {
		v = empty
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Run loads the packages matching patterns (resolved relative to dir)
// and returns the suite's unsuppressed diagnostics, with file paths
// relative to the module root. An empty pattern list means ./...
//
// The whole module is loaded regardless of the patterns — the
// interprocedural analyzers need every package's functions in the call
// graph so taint chains and noalloc contracts cross package boundaries
// — but only the requested packages are checked and reported.
func Run(dir string, patterns []string) ([]Diagnostic, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := resolvePatterns(l, dir, patterns)
	if err != nil {
		return nil, err
	}
	modDirs, err := l.Walk(l.ModRoot)
	if err != nil {
		return nil, err
	}
	byDir := make(map[string]*Package)
	var pkgs []*Package
	load := func(d string) (*Package, error) {
		key := filepath.Clean(d)
		if pkg, ok := byDir[key]; ok {
			return pkg, nil
		}
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		byDir[key] = pkg
		pkgs = append(pkgs, pkg)
		return pkg, nil
	}
	for _, d := range modDirs {
		if _, err := load(d); err != nil {
			return nil, err
		}
	}
	// Requested directories outside the module walk (explicitly named
	// testdata, say) still join the module before the graph is built.
	checked := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		pkg, err := load(d)
		if err != nil {
			return nil, err
		}
		checked = append(checked, pkg)
	}
	m := NewModule(pkgs)
	var diags []Diagnostic
	for _, pkg := range checked {
		diags = append(diags, m.Check(pkg)...)
	}
	for i := range diags {
		if rel, err := filepath.Rel(l.ModRoot, diags[i].File); err == nil {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
	return diags, nil
}

// Audit loads the packages matching patterns and returns every
// well-formed //tgvet:allow annotation they carry, with file paths
// relative to the module root.
func Audit(dir string, patterns []string) ([]AllowEntry, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := resolvePatterns(l, dir, patterns)
	if err != nil {
		return nil, err
	}
	var entries []AllowEntry
	for _, pkgDir := range dirs {
		pkg, err := l.LoadDir(pkgDir)
		if err != nil {
			return nil, err
		}
		entries = append(entries, CollectAllows(pkg)...)
	}
	for i := range entries {
		if rel, err := filepath.Rel(l.ModRoot, entries[i].File); err == nil {
			entries[i].File = filepath.ToSlash(rel)
		}
	}
	return entries, nil
}

// AllowEntry is one well-formed //tgvet:allow annotation with its
// mandatory reason, for the suppression audit (`make lint-fix-audit`):
// every escape hatch in the tree stays reviewable in one listing.
type AllowEntry struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

func (e AllowEntry) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", e.File, e.Line, e.Analyzer, e.Reason)
}

// CollectAllows scans pkg's comments for well-formed //tgvet:allow
// annotations, in source order. Malformed annotations are not listed —
// they are already hard diagnostics from the regular run.
func CollectAllows(pkg *Package) []AllowEntry {
	var entries []AllowEntry
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := allowRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" || !analyzerNames[m[1]] {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				entries = append(entries, AllowEntry{
					File:     filename,
					Line:     pos.Line,
					Analyzer: m[1],
					Reason:   strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return entries
}

// resolvePatterns expands package patterns into package directories.
// Supported forms: a directory path ("./internal/sim", "internal/sim"),
// and a recursive pattern ("./...", "./internal/...").
func resolvePatterns(l *Loader, base string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(base, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			sub, err := l.Walk(root)
			if err != nil {
				return nil, fmt.Errorf("pattern %q: %w", pat, err)
			}
			for _, d := range sub {
				add(d)
			}
			continue
		}
		d := pat
		if !filepath.IsAbs(d) {
			d = filepath.Join(base, filepath.FromSlash(pat))
		}
		info, err := os.Stat(d)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("package %q: not a directory", pat)
		}
		add(d)
	}
	return dirs, nil
}
