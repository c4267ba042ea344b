package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// tinySpecs size every workload so the whole benchmark path — runs at
// both shard counts, profiles, drivers, metrics and the summary line —
// stays fast under -race.
var tinySpecs = map[string]spec{
	"campus-write": {nodes: 8, ops: 200},
	"torus-rpc":    {nodes: 16, ops: 100},
	"chaos-verify": {nodes: 8, ops: 30},
}

func TestWorkloadsSmoke(t *testing.T) {
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	drivers := &tracedResult{}
	if err := runDrivers(t.TempDir(), 1, tinySpecs["chaos-verify"], drivers); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sp := tinySpecs[w.name]
			wr := &workloadResult{}
			tr := &tracedResult{tally: drivers.tally, Drivers: drivers.Drivers}
			for _, s := range []int{1, 2} {
				r, err := w.measure(sp, runOpts{seed: 1, shards: s})
				if err != nil {
					t.Fatalf("%d shard(s): %v", s, err)
				}
				wr.Runs = append(wr.Runs, r)
				tr.Untraced = append(tr.Untraced, r)
				var buf bytes.Buffer
				pr, err := w.measure(sp, runOpts{seed: 1, shards: s, profile: &buf})
				if err != nil {
					t.Fatalf("%d shard(s), profiled: %v", s, err)
				}
				prof, err := attribute(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				tr.Profiles = append(tr.Profiles, &profiledRun{Runs: []*runResult{pr}, Samples: prof.samples, ByLayer: prof.byLayer})
			}
			wr.Traced = tr
			finish(w, 1, sp, wr)
			if wr.Failed != 0 || wr.Attempted == 0 {
				t.Fatalf("fail_ratio %d/%d: %v", wr.Failed, wr.Attempted, wr.Failures)
			}
			res := &resultFile{Workloads: map[string]*workloadResult{w.name: wr}}
			line, err := summaryLine(def, res, false)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatal(err)
			}
			want := len(def.EndToEnd) + len(def.PerLayer)
			if !got.Correct || got.Failed != 0 || len(got.Metrics) != want {
				t.Fatalf("summary line: correct %v, failed %d, %d metrics, want %d", got.Correct, got.Failed, len(got.Metrics), want)
			}
		})
	}
}

// TestFingerprintCatchesModelChange checks that the cross-run check
// notices a run whose model outcome differs.
func TestFingerprintCatchesModelChange(t *testing.T) {
	w, _ := workloadByName("campus-write")
	a := &runResult{Shards: 1, Model: fingerprint{SimTimeNS: 10, LinkWords: 5}}
	b := &runResult{Shards: 2, Model: fingerprint{SimTimeNS: 10, LinkWords: 6}}
	wr := &workloadResult{Runs: []*runResult{a, b}}
	finish(w, 1, tinySpecs[w.name], wr)
	if wr.Failed != 1 {
		t.Fatalf("want one failed check, got %d: %v", wr.Failed, wr.Failures)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"telegraphos/internal/sim.(*heap4).down":                                              "sim.queue",
		"telegraphos/internal/sim.(*msgQueue).push":                                           "sim.queue",
		"telegraphos/internal/sim.(*eventPool).get":                                           "sim.queue",
		"telegraphos/internal/sim.(*Engine).At":                                               "sim.queue",
		"telegraphos/internal/sim.(*Engine).Schedule":                                         "sim.queue",
		"telegraphos/internal/sim.(*Engine).peekEvent":                                        "sim.queue",
		"telegraphos/internal/sim.(*Engine).nextTime":                                         "sim.queue",
		"telegraphos/internal/sim.Event.Cancel":                                               "sim.queue",
		"telegraphos/internal/sim.(*Proc).wake":                                               "sim.proc",
		"telegraphos/internal/sim.(*Engine).spawn.func1":                                      "sim.proc",
		"telegraphos/internal/sim.(*Queue[go.shape.*telegraphos/internal/packet.Packet]).Get": "sim.proc",
		"telegraphos/internal/sim.(*Group).RunUntil":                                          "sim.group",
		"telegraphos/internal/sim.(*Group).RunUntil.gowrap1":                                  "sim.group",
		"telegraphos/internal/sim.(*Chan).Send":                                               "sim.group",
		"telegraphos/internal/sim.NewChan":                                                    "sim.group",
		"telegraphos/internal/sim.(*Engine).runWindow":                                        "sim.engine",
		"telegraphos/internal/sim.(*RNG).Uint64":                                              "sim.engine",
		"telegraphos/internal/hib.(*HIB).SetRecorder":                                         "hib",
		"telegraphos/internal/link.(*Link).SendEv.func1":                                      "link",
		"telegraphos/internal/mem.(*Memory).ReadWord":                                         "other",
		"telegraphos/internal/topology.BuildTorusOn":                                          "other",
		"telegraphos/internal/simtest.Run":                                                    "simtest",
		"telegraphos.New":                                                                     "other",
		"main.measureCampus.func1":                                                            "bench",
		"runtime.mallocgc":                                                                    "",
		"sync.(*WaitGroup).Wait":                                                              "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m"}, "runtime.sched"},
	} {
		if got := runtimeLayer(c.stack); got != c.want {
			t.Errorf("runtimeLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestSimLayersMatchSource keeps the internal/sim split honest: every
// name the table lists must still be declared in internal/sim, so a
// renamed queue or process function fails here instead of silently
// moving its samples to sim.engine; and every type with methods must be
// classified, apart from the ones that are the engine's own.
func TestSimLayersMatchSource(t *testing.T) {
	dir := filepath.Join("..", filepath.FromSlash(simPackage))
	declared := map[string]bool{}
	withMethods := map[string]bool{}
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources in %s: %v", dir, err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declared[d.Name.Name] = true
					continue
				}
				recv := receiverName(d.Recv.List[0].Type)
				declared[recv+"."+d.Name.Name] = true
				withMethods[recv] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						declared[ts.Name.Name] = true
					}
				}
			}
		}
	}
	for key := range simLayers {
		if !declared[key] {
			t.Errorf("simLayers lists %q, which internal/sim no longer declares", key)
		}
	}
	engineOwn := map[string]bool{"Engine": true, "RNG": true, "Time": true}
	for typ := range withMethods {
		if _, ok := simLayers[typ]; !ok && !engineOwn[typ] {
			t.Errorf("internal/sim type %s has methods but no layer in simLayers", typ)
		}
	}
}

func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4) default.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	file := func(opsScale float64) resultFile {
		var runs []*runResult
		for i := 0; i < 6; i++ {
			for _, s := range []int{1, 2} {
				runs = append(runs, &runResult{
					Shards: s, SetupS: 0.01, WallS: 1 + 0.01*float64(i), Ops: int64(1000 * opsScale),
					AllocMB: 10, MaxRSSMB: 20, Model: fingerprint{SimTimeNS: 7},
					Counts: map[string]float64{"sim.events": 100, "link.words": 50},
				})
			}
		}
		return resultFile{Workloads: map[string]*workloadResult{"torus-rpc": {Runs: runs}}}
	}
	dir := t.TempDir()
	write := func(name string, r resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", file(1)), write("b.json", file(1)), write("c.json", file(0.5))
	var out, errb bytes.Buffer
	if code := runCompare(def, a, same, &out, &errb); code != 0 || !strings.Contains(out.String(), "within bound") {
		t.Fatalf("identical files: exit %d\n%s%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := runCompare(def, a, slow, &out, &errb); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("halved throughput: exit %d\n%s", code, out.String())
	}
	// A faster engine may execute fewer events: shown, not a failure.
	fewer := file(1)
	for _, r := range fewer.Workloads["torus-rpc"].Runs {
		r.Counts["sim.events"] = 90
	}
	out.Reset()
	if code := runCompare(def, a, write("d.json", fewer), &out, &errb); code != 0 || !strings.Contains(out.String(), "engine work") {
		t.Fatalf("fewer engine events: exit %d\n%s", code, out.String())
	}
	changed := file(1)
	changed.Workloads["torus-rpc"].Runs[0].Counts["link.words"] = 51
	out.Reset()
	if code := runCompare(def, a, write("e.json", changed), &out, &errb); code != 1 || !strings.Contains(out.String(), "MODEL MISMATCH") {
		t.Fatalf("changed model count: exit %d\n%s", code, out.String())
	}
}
