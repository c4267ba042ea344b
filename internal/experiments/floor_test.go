package experiments

import (
	"os"
	"testing"
	"time"
)

// floorPath is where `make bench` records the gate (repo root, next to
// BENCH_pdes.json).
const floorPath = "../../BENCH_pdes.floor"

// BenchmarkPDESThroughputFloor is the CI throughput smoke scripts/check.sh
// runs (with -benchtime 3x): it replays the floor's workload single-shard
// and fails if the best iteration stays below the recorded floor after
// slow-host scaling. The rate counts executed plus elided items, the
// work measure PDESPoint.EventsPerSec and so the recorded floor use.
// Regenerate the floor with `make bench` after an intentional
// performance change.
func BenchmarkPDESThroughputFloor(b *testing.B) {
	floor, err := ReadFloor(floorPath)
	if err != nil {
		if os.IsNotExist(err) {
			b.Skipf("no recorded floor at %s (run `make bench`)", floorPath)
		}
		b.Fatalf("reading floor: %v", err)
	}
	scaled := floor.Scaled(RefSpin())
	best := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := pdesRun(floor.Nodes, 1, floor.OpsPerNode)
		if evps := float64(cell.events+cell.elided) / cell.wall.Seconds(); evps > best {
			best = evps
		}
	}
	b.ReportMetric(best, "events/sec")
	if best < scaled {
		b.Fatalf("single-shard throughput regressed: best %.0f events/sec < floor %.0f (recorded %.0f, slow-host scaled)",
			best, scaled, floor.MinEventsPerSec)
	}
}

// TestFloorScaling pins the slow-host guard arithmetic.
func TestFloorScaling(t *testing.T) {
	f := &ThroughputFloor{MinEventsPerSec: 1000, RefSpinNS: 100}
	if got := f.Scaled(100 * time.Nanosecond); got != 1000 {
		t.Errorf("equal-speed host: floor %v, want 1000", got)
	}
	if got := f.Scaled(200 * time.Nanosecond); got != 500 {
		t.Errorf("half-speed host: floor %v, want 500", got)
	}
	if got := f.Scaled(50 * time.Nanosecond); got != 1000 {
		t.Errorf("faster host must not raise the floor: got %v, want 1000", got)
	}
	if got := (&ThroughputFloor{MinEventsPerSec: 7}).Scaled(0); got != 7 {
		t.Errorf("unset calibration falls back to the raw floor: got %v", got)
	}
}

// TestFloorRoundTrip pins the floor file format.
func TestFloorRoundTrip(t *testing.T) {
	path := t.TempDir() + "/floor.json"
	want := &ThroughputFloor{Nodes: 8, OpsPerNode: 1500, MinEventsPerSec: 2.5e6, RefSpinNS: 42, Note: "x"}
	if err := WriteFloor(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFloor(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}
