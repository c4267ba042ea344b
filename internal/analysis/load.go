package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under
// analysis.
type Package struct {
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Dir is the package's source directory.
	Dir string
	// Fset positions every file in the package (shared by the loader).
	Fset *token.FileSet
	// Files are the parsed non-test Go files, in filename order.
	Files []*ast.File
	// Sources maps filename to raw bytes (annotation parsing needs the
	// original line layout).
	Sources map[string][]byte
	// Types and Info are the go/types results. Type-checking is
	// lenient: imports outside the module resolve to faked empty
	// packages, so Info can be partial for expressions that flow
	// through the standard library. Module-internal types are precise.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks module packages from source. It is a
// deliberately small stand-in for golang.org/x/tools/go/packages: the
// module has no external dependencies and must build offline, so the
// loader resolves "telegraphos/..." imports recursively from the module
// tree and fakes every other import (the standard library) as an empty
// package. The analyzers only need identity — which import path a
// qualifier names — for non-module packages, never their members, so
// the fake is sufficient and keeps loading fast and hermetic.
type Loader struct {
	// ModRoot is the directory containing go.mod.
	ModRoot string
	// ModPath is the module path declared there.
	ModPath string

	fset  *token.FileSet
	pkgs  map[string]*Package // memo, by directory
	fakes map[string]*types.Package
	busy  map[string]bool // cycle guard, by directory
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModRoot: root,
		ModPath: modPath,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		fakes:   make(map[string]*types.Package),
		busy:    make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module import path to its source directory.
func (l *Loader) dirFor(importPath string) (string, bool) {
	if importPath == l.ModPath {
		return l.ModRoot, true
	}
	if rest, ok := strings.CutPrefix(importPath, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// LoadDir parses and type-checks the package in dir (non-test files
// only). Results are memoized; import cycles and unparseable files are
// errors, type errors are not (see the Package doc).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	if l.busy[dir] {
		return nil, fmt.Errorf("analysis: import cycle through %s", dir)
	}
	l.busy[dir] = true
	defer delete(l.busy, dir)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg := &Package{
		ImportPath: l.importPathFor(dir),
		Dir:        dir,
		Fset:       l.fset,
		Sources:    make(map[string][]byte),
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Sources[path] = src
		pkg.Files = append(pkg.Files, f)
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(error) {}, // lenient: go build owns compile errors
	}
	pkg.Types, _ = conf.Check(pkg.ImportPath, l.fset, pkg.Files, pkg.Info)
	l.pkgs[dir] = pkg
	return pkg, nil
}

// goFilesIn lists the non-test Go files of dir that the go command
// builds for this platform and toolchain, sorted: a file whose build
// constraints exclude it, such as a //go:build ignore program, is not
// part of the package.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Walk returns every package directory under root (the module root or a
// subtree), skipping testdata, hidden directories, and directories with
// no non-test Go files.
func (l *Loader) Walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// loaderImporter resolves imports during type-checking: module packages
// load recursively from source, everything else is faked.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if fake, ok := l.fakes[path]; ok {
		return fake, nil
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	fake := types.NewPackage(path, name)
	fake.MarkComplete()
	l.fakes[path] = fake
	return fake, nil
}
