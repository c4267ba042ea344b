// Command tgtrace generates, inspects, and replays shared-memory access
// traces (the [22]-style trace-driven methodology).
//
// Subcommands:
//
//	tgtrace gen -kind hotpage -n 10000 -out t.tgt   # generate a trace
//	tgtrace stat t.tgt                              # summarize a trace
//	tgtrace replay -nodes 4 t.tgt                   # replay over the update protocol
//	tgtrace events -n 20 run.tge                    # inspect a TGE1 event spill
//	                                                # (written by tgchaos -spill)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/coherence"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/params"
	"telegraphos/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "stat":
		stat(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "events":
		events(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tgtrace gen|stat|replay|events [flags]")
	os.Exit(2)
}

// events dumps a TGE1 event spill (the canonical merged stream a
// windowed log paged to disk): per-kind and per-node totals, the
// recomputed incremental fingerprint, and optionally the records
// themselves.
func events(args []string) {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	n := fs.Int("n", 0, "print the first n records (0 = summary only)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := dumpEvents(os.Stdout, f, *n); err != nil {
		fatal(fmt.Errorf("%s: %w", fs.Arg(0), err))
	}
}

// dumpEvents reads a TGE1 stream from r and writes the events summary
// to out: the first n records, the event count and time span, the
// fingerprint, and one line per event kind and per node present, each
// table sorted by key.
func dumpEvents(out io.Writer, r io.Reader, n int) error {
	sr, err := trace.NewSpillReader(r)
	if err != nil {
		return err
	}
	var (
		total   int
		hash    = trace.HashInit
		byKind  [256]int // EventKind is a byte
		byNode  = make(map[int]int)
		nodes   []int // keys of byNode
		lastAt  int64
		firstAt int64
	)
	for {
		e, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", total, err)
		}
		if total == 0 {
			firstAt = e.At
		}
		if total < n {
			fmt.Fprintln(out, e.String())
		}
		hash = trace.FoldHash(hash, e)
		byKind[e.Kind]++
		if byNode[e.Node] == 0 {
			nodes = append(nodes, e.Node)
		}
		byNode[e.Node]++
		lastAt = e.At
		total++
	}
	fmt.Fprintf(out, "events:  %d (t=%d..%d)\nhash:    %#016x\n", total, firstAt, lastAt, hash)
	for k, c := range byKind {
		if c > 0 {
			fmt.Fprintf(out, "  %-18s %d\n", trace.EventKind(k).String(), c)
		}
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		fmt.Fprintf(out, "  node%-14d %d\n", node, byNode[node])
	}
	return nil
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "hotpage", "hotpage, uniform, producer-consumer")
	n := fs.Int("n", 10000, "number of accesses")
	nodes := fs.Int("nodes", 4, "number of nodes")
	words := fs.Int("words", 1024, "shared words")
	seed := fs.Int64("seed", 1, "seed")
	out := fs.String("out", "trace.tgt", "output file")
	fs.Parse(args)
	if err := checkCounts(*n, *nodes, *words); err != nil {
		usageErr(err)
	}

	var t []trace.Access
	switch *kind {
	case "hotpage":
		t = trace.HotPage(*seed, *n, *nodes, *words, 16, 0.9, 0.3)
	case "uniform":
		t = trace.Uniform(*seed, *n, *nodes, *words, 0.3)
	case "producer-consumer":
		t = trace.ProducerConsumer(*n/(*nodes**words), *nodes, *words)
	default:
		fmt.Fprintf(os.Stderr, "tgtrace: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, t); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d accesses to %s\n", len(t), *out)
}

func stat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	t := load(fs.Arg(0))
	s := trace.Summarize(t)
	fmt.Printf("accesses: %d\nwrites:   %d (%.1f%%)\nwords:    %d distinct\n",
		s.Accesses, s.Writes, 100*float64(s.Writes)/float64(max(s.Accesses, 1)), len(s.Words))
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "number of nodes")
	mode := fs.String("counters", "cached", "counter mode: off, cached, infinite")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := checkNodes(*nodes); err != nil {
		usageErr(err)
	}
	t := load(fs.Arg(0))

	var cm coherence.CounterMode
	switch *mode {
	case "off":
		cm = coherence.CountersOff
	case "cached":
		cm = coherence.CountersCached
	case "infinite":
		cm = coherence.CountersInfinite
	default:
		fmt.Fprintf(os.Stderr, "tgtrace: unknown counter mode %q\n", *mode)
		os.Exit(2)
	}

	maxWord := 0
	for _, a := range t {
		maxWord = max(maxWord, a.Word)
	}
	cfg := params.Default(*nodes)
	cfg.Sizing.MemBytes = 1 << 23
	c := core.New(cfg)
	u := coherence.NewUpdate(c, cm)
	base := c.AllocShared(0, 8*(maxWord+1))
	all := make([]int, *nodes)
	for i := range all {
		all[i] = i
	}
	pages := (8*(maxWord+1) + c.PageSize() - 1) / c.PageSize()
	for pg := 0; pg < pages; pg++ {
		u.SharePage(base+addrspace.VAddr(pg*c.PageSize()), 0, all)
	}

	parts := trace.Split(t, *nodes)
	for i := 0; i < *nodes; i++ {
		i := i
		c.Spawn(i, "replay", func(ctx *cpu.Ctx) {
			for _, a := range parts[i] {
				va := base + addrspace.VAddr(8*a.Word)
				if a.Write {
					ctx.Store(va, uint64(a.Word))
				} else {
					ctx.Load(va)
				}
			}
			ctx.Fence()
		})
	}
	if err := c.Run(); err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d accesses on %d nodes in %v simulated\n", len(t), *nodes, c.Eng.Now())
	for i := 0; i < *nodes; i++ {
		m := u.Mgr(i)
		fmt.Printf("node %d: %s", i, m.Counters)
		if cm == coherence.CountersCached {
			cc := m.Cache()
			fmt.Printf(" | CAM: max-occupancy=%d stalls=%d stall-time=%v",
				cc.MaxOccupancy(), cc.Stalls(), cc.StallTime())
		}
		fmt.Println()
	}
}

// checkCounts rejects the gen count flags no trace can honour: a
// negative -n, or fewer than one node or one word.
func checkCounts(n, nodes, words int) error {
	if err := checkNodes(nodes); err != nil {
		return err
	}
	switch {
	case n < 0:
		return fmt.Errorf("-n %d: want 0 or more", n)
	case words < 1:
		return fmt.Errorf("-words %d: want 1 or more", words)
	}
	return nil
}

// checkNodes rejects a -nodes below one.
func checkNodes(nodes int) error {
	if nodes < 1 {
		return fmt.Errorf("-nodes %d: want 1 or more", nodes)
	}
	return nil
}

// usageErr reports a bad flag value on one line and exits 2.
func usageErr(err error) {
	fmt.Fprintf(os.Stderr, "tgtrace: %v\n", err)
	os.Exit(2)
}

func load(path string) []trace.Access {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	t, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	return t
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tgtrace: %v\n", err)
	os.Exit(1)
}
