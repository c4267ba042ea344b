package litmus

import (
	"strings"
	"testing"

	"telegraphos/internal/sim"
)

func findTest(t *testing.T, name string) *Test {
	t.Helper()
	for _, lt := range Tests() {
		if lt.Name == name {
			return lt
		}
	}
	t.Fatalf("no litmus test named %q", name)
	return nil
}

// TestCatalogShapes sanity-checks the catalog's internal consistency.
func TestCatalogShapes(t *testing.T) {
	seen := map[string]bool{}
	for _, lt := range Tests() {
		if seen[lt.Name] {
			t.Errorf("duplicate test name %q", lt.Name)
		}
		seen[lt.Name] = true
		if lt.NLocs == 0 || len(lt.Threads) == 0 {
			t.Errorf("%s: empty shape", lt.Name)
		}
		for ti, th := range lt.Threads {
			for si, s := range th {
				if s.Loc >= lt.NLocs {
					t.Errorf("%s thread %d stmt %d: loc %d out of range", lt.Name, ti, si, s.Loc)
				}
				switch s.Op {
				case Ld, LdWait, FAI, FAS, CAS:
					if s.Out >= lt.NOut {
						t.Errorf("%s thread %d stmt %d: out %d out of range", lt.Name, ti, si, s.Out)
					}
				}
			}
		}
		if len(lt.WitnessUnder) > 0 && lt.Witness == nil {
			t.Errorf("%s: WitnessUnder without Witness", lt.Name)
		}
	}
}

// TestCleanRunNoViolations runs every test under its protocols on a
// clean single-shard network: no conformance violations, and no
// forbidden outcome under the Telegraphos protocols.
func TestCleanRunNoViolations(t *testing.T) {
	for _, lt := range Tests() {
		for _, proto := range []Protocol{Update, Invalidate, Galactica} {
			if !lt.runsUnder(proto) {
				continue
			}
			rr := Run(lt, Config{Protocol: proto, Shards: 1, Seed: 11})
			if len(rr.Violations) > 0 {
				t.Errorf("%s under %v: %v", lt.Name, proto, rr.Violations)
			}
			if rr.Events == 0 {
				t.Errorf("%s under %v: empty trace", lt.Name, proto)
			}
		}
	}
}

// TestShardInvariantVerdicts re-runs one representative of each region
// across shard counts and demands identical outcomes and trace hashes.
func TestShardInvariantVerdicts(t *testing.T) {
	for _, name := range []string{"SB+fence", "CoRR-coherent", "atomic-inc"} {
		lt := findTest(t, name)
		var wantHash uint64
		var wantOutcome string
		for i, shards := range []int{1, 2, 4} {
			rr := Run(lt, Config{Protocol: Update, Shards: shards, Seed: 7, Variant: 1})
			if len(rr.Violations) > 0 {
				t.Fatalf("%s shards=%d: %v", name, shards, rr.Violations)
			}
			if i == 0 {
				wantHash, wantOutcome = rr.TraceHash, rr.Outcome.String()
				continue
			}
			if rr.TraceHash != wantHash {
				t.Errorf("%s: trace hash differs at shards=%d", name, shards)
			}
			if rr.Outcome.String() != wantOutcome {
				t.Errorf("%s: outcome %q at shards=%d, want %q", name, rr.Outcome, shards, wantOutcome)
			}
		}
	}
}

// TestGalacticaWitness reproduces the §2.4 anomaly: some variant of the
// two-writers-observer test under the ring protocol shows the watched
// node applying 1, 2, 1.
func TestGalacticaWitness(t *testing.T) {
	lt := findTest(t, "2W-observer")
	for v := 0; v < 8; v++ {
		rr := Run(lt, Config{Protocol: Galactica, Shards: 1, Seed: 3, Variant: v})
		if rr.Witnessed {
			return
		}
	}
	t.Fatal("Galactica never produced the 1,2,1 anomaly across 8 variants")
}

// TestUpdateNeverABA is the witness's dual: the owner-serialized
// protocol must not show the anomaly under the identical schedule sweep.
func TestUpdateNeverABA(t *testing.T) {
	lt := findTest(t, "2W-observer")
	for v := 0; v < 8; v++ {
		rr := Run(lt, Config{Protocol: Update, Shards: 1, Seed: 3, Variant: v})
		if rr.Outcome.ABA {
			t.Fatalf("update protocol showed ABA at variant %d", v)
		}
		if len(rr.Violations) > 0 {
			t.Fatalf("variant %d: %v", v, rr.Violations)
		}
	}
}

// TestFaultedAtomics hammers the atomic tests through a lossy network:
// retries and duplicate suppression must still yield exactly-once
// semantics and a linearizable history.
func TestFaultedAtomics(t *testing.T) {
	for _, name := range []string{"atomic-inc", "atomic-swap"} {
		lt := findTest(t, name)
		for _, fl := range FaultLevels(false) {
			plan := fl.Plan
			if plan != nil {
				p := *plan
				p.Seed = 99
				plan = &p
			}
			rr := Run(lt, Config{Protocol: Update, Shards: 2, Faults: plan, Seed: 99})
			if len(rr.Violations) > 0 {
				t.Errorf("%s faults=%s: %v", name, fl.Name, rr.Violations)
			}
		}
	}
}

// TestQuickSweepPasses is the tier-1 gate: the trimmed matrix must be
// violation-free and must still catch the Galactica witness.
func TestQuickSweepPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep still runs the full trimmed matrix")
	}
	res := Sweep(SweepOptions{Quick: true, Seed: 1})
	if res.Failed() {
		for _, v := range res.Violations {
			t.Errorf("violation: %s", v)
		}
		for _, m := range res.MissingWitness {
			t.Errorf("missing witness: %s", m)
		}
	}
	if res.Runs == 0 {
		t.Fatal("sweep ran nothing")
	}
}

// TestSelectTests pins the -tests filter: known names select, and an
// unknown or blank name is an error naming the catalog rather than a
// silently empty (and passing) sweep.
func TestSelectTests(t *testing.T) {
	sel, err := SelectTests("SB, MP+fence")
	if err != nil || len(sel) != 2 || !sel["SB"] || !sel["MP+fence"] {
		t.Fatalf("SelectTests(SB, MP+fence) = %v, %v", sel, err)
	}
	for _, bad := range []string{"NOPE", "SB, ", "SB,,MP"} {
		if _, err := SelectTests(bad); err == nil || !strings.Contains(err.Error(), "known: SB") {
			t.Errorf("SelectTests(%q): want an error listing the catalog, got %v", bad, err)
		}
	}
}

// TestStaggerScalesWithVariant pins the timing-sweep contract: variant 0
// means simultaneous starts even with a stagger declared.
func TestStaggerScalesWithVariant(t *testing.T) {
	lt := findTest(t, "SB")
	r0 := Run(lt, Config{Protocol: Update, Shards: 1, Seed: 5, Variant: 0})
	r3 := Run(lt, Config{Protocol: Update, Shards: 1, Seed: 5, Variant: 3})
	if len(r0.Violations)+len(r3.Violations) > 0 {
		t.Fatalf("violations: %v %v", r0.Violations, r3.Violations)
	}
	if r0.TraceHash == r3.TraceHash && lt.Stagger[1] != sim.Time(0) {
		t.Error("variants 0 and 3 produced identical traces; stagger had no effect")
	}
}

// TestCombiningFAI pins the combining arm directly: the hot-counter test
// stays violation-free with in-switch combining across shard counts and
// fault schedules, and the combining runs remain shard-invariant.
func TestCombiningFAI(t *testing.T) {
	lt := findTest(t, "comb-fai")
	for _, fl := range FaultLevels(false) {
		var wantHash uint64
		for i, shards := range []int{1, 2, 4} {
			plan := fl.Plan
			if plan != nil {
				p := *plan
				p.Seed = 42
				plan = &p
			}
			rr := Run(lt, Config{Protocol: Update, Shards: shards, Faults: plan, Combining: true, Seed: 42})
			if len(rr.Violations) > 0 {
				t.Errorf("faults=%s shards=%d: %v", fl.Name, shards, rr.Violations)
			}
			if i == 0 {
				wantHash = rr.TraceHash
			} else if rr.TraceHash != wantHash {
				t.Errorf("faults=%s: combining trace hash differs at shards=%d", fl.Name, shards)
			}
		}
	}
}
