package litmus

import (
	"fmt"
	"testing"

	"telegraphos/internal/link"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// TestOnlineMatchesBatchCorpus sweeps the whole litmus corpus with the
// differential oracle on: every run taps a retained EventLog onto the
// merged stream, which must be in canonical order — nondecreasing in
// (At, Node); the rings are FIFO, so per-node order holds by
// construction — must carry the result's fingerprint and event count,
// and must drive the batch checkers to the online checker's
// linearizability and fence verdicts. Timing variants and a faulty-link
// schedule widen the histories the equivalence is proved over (drops
// create pending writes, duplicates stress the effect matching).
func TestOnlineMatchesBatchCorpus(t *testing.T) {
	plans := []*link.FaultPlan{
		nil,
		{DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.10, JitterMax: 1200 * sim.Nanosecond},
	}
	for _, lt := range Tests() {
		for _, proto := range []Protocol{Update, Invalidate, Galactica} {
			if proto == Invalidate && lt.Region != Coherent {
				continue
			}
			for _, variant := range []int{0, 2} {
				for pi, plan := range plans {
					var p *link.FaultPlan
					if plan != nil {
						cp := *plan
						cp.Seed = int64(variant + 1)
						p = &cp
					}
					log := trace.NewEventLog()
					rr, olz := run(lt, Config{
						Protocol: proto, Shards: 1, Seed: 11, Variant: variant, Faults: p,
					}, log)
					label := fmt.Sprintf("%s/%v variant=%d plan=%d", lt.Name, proto, variant, pi)
					evs := log.Events()
					for i := 1; i < len(evs); i++ {
						a, b := evs[i-1], evs[i]
						if a.At > b.At || (a.At == b.At && a.Node > b.Node) {
							t.Errorf("%s: event %d (%v) precedes event %d (%v) out of (At, Node) order", label, i-1, a, i, b)
							break
						}
					}
					if log.Hash() != rr.TraceHash || log.Len() != rr.Events {
						t.Errorf("%s: tapped stream (hash %#x, %d events) != result (hash %#x, %d events)",
							label, log.Hash(), log.Len(), rr.TraceHash, rr.Events)
					}
					if err := olz.AgreesWithBatch(evs); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}
			}
		}
	}
}
