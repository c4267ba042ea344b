package tchan

import (
	"testing"

	"telegraphos/internal/sim"
)

func TestTransactSerializes(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		e.Spawn("master", func(p *sim.Proc) {
			b.Transact(p, 100)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 3 || ends[0] != 100 || ends[1] != 200 || ends[2] != 300 {
		t.Fatalf("bus transactions did not serialize: %v", ends)
	}
}

func TestCounters(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	if b.Utilization() != 0 {
		t.Fatal("idle bus should have zero utilization")
	}
	e.Spawn("m", func(p *sim.Proc) {
		b.Transact(p, 400)
		p.Sleep(600)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Transactions() != 1 || b.busy != 400 {
		t.Fatalf("counters: %d transactions, busy %v", b.Transactions(), b.busy)
	}
	if u := b.Utilization(); u < 0.39 || u > 0.41 {
		t.Fatalf("utilization = %g, want 0.4", u)
	}
}

func TestZeroCostTransact(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	e.Spawn("m", func(p *sim.Proc) { b.Transact(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Transactions() != 1 {
		t.Fatal("zero-cost transaction not counted")
	}
}
