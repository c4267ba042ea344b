//go:build ignore

// Command unlinked is the dead-code census: it lists the module's
// non-test functions that no binary links.
//
// It builds every main package of the module and of the nested bench
// module with inlining off, so that a called function keeps a symbol of
// its own, and reads each binary's symbols with `go tool nm`. A library
// function counts as linked when any binary holds it, a main package's
// function only when its own binary does. Symbols of generic code map
// back to their declaration: `(*Queue[go.shape.[]uint64]).Get` is
// Queue.Get. The declarations are the non-test funcs of the packages
// `go list` reports, so analyzer testdata is out of scope. One blind
// spot: a binary that instantiates a generic type links every exported
// method of it, called or not.
//
// Functions that stay on purpose are listed, each with a one-line
// reason, in unlinked.keep next to this file. The census prints every
// unlinked function not on that list, every entry of the list that is
// no longer an unlinked function, and a summary. It is a report, not a
// gate: it exits 0 whatever it finds.
//
// Usage, from the repository root:
//
//	go run scripts/unlinked.go
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// fn is one func declaration.
type fn struct {
	sym   string // the symbol it links as, in the form normalize gives
	bin   string // for a main package, the binary that must hold it
	pos   string // file:line, relative to the repository root
	lines int    // doc comment through closing brace
}

func main() {
	root, err := os.Getwd()
	check(err)
	tmp, err := os.MkdirTemp("", "unlinked")
	check(err)
	defer os.RemoveAll(tmp)

	linked := map[string]map[string]bool{} // binary -> its symbols
	all := map[string]bool{}               // symbols of every binary
	decls := map[string]fn{}               // import path + "." + [type + "."] + name
	for _, mod := range []string{root, filepath.Join(root, "bench")} {
		out := run(mod, "go", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			f := strings.Split(line, "\t")
			path, name, dir := f[0], f[1], f[2]
			bin := ""
			if name == "main" {
				bin = filepath.Base(dir)
				if linked[bin] != nil {
					fail("two main packages build a binary named %s", bin)
				}
				exe := filepath.Join(tmp, bin)
				run(mod, "go", "build", "-gcflags=telegraphos/...=-l", "-o", exe, path)
				linked[bin] = symbols(run(root, "go", "tool", "nm", exe))
				for s := range linked[bin] {
					all[s] = true
				}
			}
			for _, file := range strings.Fields(f[3]) {
				parse(root, filepath.Join(dir, file), path, bin, decls)
			}
		}
	}

	keep := readKeep(filepath.Join(root, "scripts", "unlinked.keep"))
	var keys []string
	for k, f := range decls {
		if (f.bin == "" && !all[f.sym]) || (f.bin != "" && !linked[f.bin][f.sym]) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var lines, kept, keptLines int
	dead := map[string]bool{}
	for _, k := range keys {
		f := decls[k]
		dead[k] = true
		lines += f.lines
		if keep[k] {
			kept++
			keptLines += f.lines
			continue
		}
		fmt.Printf("%-60s %s (%d lines)\n", k, f.pos, f.lines)
	}
	var stale []string
	for k := range keep {
		if !dead[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		fmt.Printf("stale keep entry %s: linked or no longer declared\n", k)
	}
	fmt.Printf("unlinked: %d functions, %d lines; kept: %d functions, %d lines; not kept: %d; keep list: %d entries, %d stale\n",
		len(keys), lines, kept, keptLines, len(keys)-kept, len(keep), len(stale))
}

// parse adds the funcs with bodies of one file of package path to decls;
// bin is the package's binary when it is a main package.
func parse(root, file, path, bin string, decls map[string]fn) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	check(err)
	for _, d := range af.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
			continue
		}
		local := fd.Name.Name
		if fd.Recv != nil {
			local = recvType(fd.Recv.List[0].Type) + "." + local
		}
		f := fn{sym: path + "." + local, bin: bin}
		if bin != "" {
			f.sym = "main." + local
		}
		start := fd.Pos()
		if fd.Doc != nil {
			start = fd.Doc.Pos()
		}
		rel, err := filepath.Rel(root, file)
		check(err)
		f.pos = fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
		f.lines = fset.Position(fd.End()).Line - fset.Position(start).Line + 1
		decls[path+"."+local] = f
	}
}

// recvType names a receiver's base type: *T, T[K] and *T[K, V] are T.
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			fail("unexpected receiver %T", e)
		}
	}
}

// symbols returns the text symbols of `go tool nm` output, normalized.
func symbols(nm string) map[string]bool {
	syms := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(nm))
	for sc.Scan() {
		// "addr type name": a name may hold spaces (go.shape.struct { ... }).
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			syms[normalize(f[2])] = true
		}
	}
	check(sc.Err())
	return syms
}

// normalize writes a symbol in declaration form: type arguments dropped
// and `(*T).M` written T.M. Closures (F.func1) and method values (M-fm)
// keep their suffix, so they match no declaration.
func normalize(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readKeep reads the keep list: one "<function> <reason>" per line, with
// blank lines and #-comments skipped.
func readKeep(path string) map[string]bool {
	data, err := os.ReadFile(path)
	check(err)
	keep := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		key, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		switch {
		case key == "" || strings.HasPrefix(key, "#"):
		case strings.TrimSpace(reason) == "":
			fail("%s:%d: %s has no reason", path, i+1, key)
		case keep[key]:
			fail("%s:%d: %s listed twice", path, i+1, key)
		default:
			keep[key] = true
		}
	}
	return keep
}

func run(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fail("%s %s: %v", name, strings.Join(args, " "), err)
	}
	return string(out)
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "unlinked: "+format+"\n", args...)
	os.Exit(1)
}
