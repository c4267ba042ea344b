package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution for the traced run. Every CPU sample is charged to
// the layer of the innermost frame that belongs to this repository (the
// telegraphos module or the benchmark itself). A stack with no such
// frame is the Go runtime's own work: garbage collection when a GC
// frame is on it, scheduling otherwise.

// layers lists every layer a sample can be charged to, in report order.
var layers = []string{
	"sim.queue", "sim.proc", "sim.group", "sim.engine",
	"cpu", "hib", "link", "switchfab", "coherence",
	"trace", "linearize", "consistency", "simtest", "other",
	"runtime.sched", "runtime.gc", "bench",
}

// ownLayers holds the internal packages that are layers of their own;
// every other package of the module is "other" (mmu, mem, tchan,
// osmodel, addrspace, stats, topology, collective, ...).
var ownLayers = map[string]bool{
	"cpu": true, "hib": true, "link": true, "switchfab": true, "coherence": true,
	"trace": true, "linearize": true, "consistency": true, "simtest": true,
}

// simLayers splits internal/sim. Keys are a receiver type, a function,
// or "Type.method"; the most specific key wins, and anything unlisted is
// sim.engine (the runWindow loop, RunUntil, the RNG, time helpers).
var simLayers = map[string]string{
	// The event queue: heaps, the slot pool, and the engine methods that
	// push to and pop from them.
	"heap4": "sim.queue", "newHeap4": "sim.queue", "eqEnt": "sim.queue",
	"msgQueue": "sim.queue", "msgBefore": "sim.queue",
	"eventPool": "sim.queue", "Event": "sim.queue",
	"Engine.At": "sim.queue", "Engine.Schedule": "sim.queue",
	"Engine.peekEvent": "sim.queue", "Engine.nextTime": "sim.queue",
	"Engine.maybeCompact": "sim.queue", "Engine.Pending": "sim.queue",
	// Process hand-off and the blocking primitives processes park on.
	"Proc": "sim.proc", "Engine.spawn": "sim.proc", "Engine.Spawn": "sim.proc",
	"Engine.SpawnDaemon": "sim.proc", "Engine.checkSameShard": "sim.proc",
	"Queue": "sim.proc", "NewQueue": "sim.proc", "Semaphore": "sim.proc",
	"NewSemaphore": "sim.proc", "Mutex": "sim.proc", "NewMutex": "sim.proc",
	"Completion": "sim.proc", "NewCompletion": "sim.proc",
	"Future": "sim.proc", "NewFuture": "sim.proc",
	// Barrier rounds and cross-shard delivery.
	"Group": "sim.group", "NewGroup": "sim.group",
	"Chan": "sim.group", "NewChan": "sim.group",
}

const (
	modulePrefix = "telegraphos/"
	simPackage   = "internal/sim"
)

// layerOf maps a symbol name as the profile records it (for example
// "telegraphos/internal/sim.(*heap4).down") to its layer, or "" when the
// symbol is outside this repository.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		if strings.HasPrefix(fn, "telegraphos.") {
			return "other" // the root facade package
		}
		return ""
	}
	// Package paths in the module contain no dots, so the first one ends
	// the path even when a generic instantiation names other packages.
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "other"
	}
	pkg, sym := rest[:dot], rest[dot+1:]
	if pkg == simPackage {
		return simLayer(sym)
	}
	if name, ok := strings.CutPrefix(pkg, "internal/"); ok && ownLayers[name] {
		return name
	}
	return "other"
}

// simLayer classifies a symbol of internal/sim by simLayers.
func simLayer(sym string) string {
	typ, method := splitSym(sym)
	if l, ok := simLayers[typ+"."+method]; ok && method != "" {
		return l
	}
	if l, ok := simLayers[typ]; ok {
		return l
	}
	return "sim.engine"
}

// splitSym splits "(*Type[shape]).method.func1" into ("Type", "method")
// and "Func.func1" into ("Func", "func1").
func splitSym(sym string) (typ, method string) {
	sym = stripTypeArgs(sym)
	if rest, ok := strings.CutPrefix(sym, "("); ok {
		typ, sym, _ = strings.Cut(rest, ")")
		typ = strings.TrimPrefix(typ, "*")
		sym = strings.TrimPrefix(sym, ".")
	} else {
		typ, sym, _ = strings.Cut(sym, ".")
	}
	method, _, _ = strings.Cut(sym, ".")
	return typ, method
}

// stripTypeArgs removes every bracketed type-argument list, which may
// itself hold dots, parentheses and brackets.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// runtimeLayer classifies a stack with no frame of this repository.
func runtimeLayer(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// gcFrames are the symbol prefixes of the runtime's collector: the
// background mark and sweep workers, and the profiler's GC pseudo-frame.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime._GC",
}

// profile is the part of a CPU profile the ledger needs.
type profile struct {
	samples int64
	byLayer map[string]int64
}

// attribute decodes a gzipped pprof CPU profile and charges every
// sample to its layer.
func attribute(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	pp, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{byLayer: map[string]int64{}}
	var stack []string
	for _, s := range pp.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		stack = stack[:0]
		layer := ""
	frames:
		for _, loc := range s.locs {
			// A location's lines list inlined calls innermost first.
			for _, fid := range pp.locLines[loc] {
				fn := pp.strings[pp.funcName[fid]]
				if layer = layerOf(fn); layer != "" {
					break frames
				}
				stack = append(stack, fn)
			}
		}
		if layer == "" {
			layer = runtimeLayer(stack)
		}
		p.byLayer[layer] += n
		p.samples += n
	}
	return p, nil
}

// rawProfile holds the decoded fields of profile.proto that attribution
// uses: samples (location ids and values), each location's function ids,
// function name string indexes, and the string table.
type rawProfile struct {
	samples  []rawSample
	locLines map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

type rawSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the protobuf encoding of a pprof profile with the
// standard library alone (the module takes no dependencies).
func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, msg []byte) error {
		switch {
		case field == 2 && wire == 2: // Sample
			var s rawSample
			err := walkFields(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, m)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, w, v, m); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case field == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f, w int, v uint64, m []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					return walkFields(m, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case field == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := walkFields(msg, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && f == 1 {
					id = v
				} else if w == 0 && f == 2 {
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case field == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// appendUints appends a repeated varint field in either its packed
// (wire type 2) or its plain (wire type 0) encoding.
func appendUints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// walkFields calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, msg a length-delimited payload.
func walkFields(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
