package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"telegraphos/internal/sim"
)

func genEvents(rng *sim.RNG, n int) []Event {
	evs := make([]Event, n)
	at := int64(0)
	for i := range evs {
		at += int64(rng.Intn(5))
		evs[i] = Event{
			At:   at,
			Node: rng.Intn(1 << 16),
			Kind: EventKind(rng.Intn(256)),
			Addr: rng.Uint64(),
			Val:  rng.Uint64(),
			Aux:  rng.Uint64(),
		}
	}
	return evs
}

func TestSpillRoundTrip(t *testing.T) {
	rng := sim.ForkRNG(3, "test/spill")
	for trial := 0; trial < 50; trial++ {
		evs := genEvents(rng, rng.Intn(200))
		var buf bytes.Buffer
		sw, err := NewSpillWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if err := sw.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSpill(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !eventsEqual(got, evs) {
			t.Fatalf("trial %d: spill round trip diverges (%d events)", trial, len(evs))
		}
	}
}

func TestSpillRejectsBadNode(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSpillWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(Event{Node: -1}); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := sw.Write(Event{Node: 1 << 33}); err == nil {
		t.Fatal("oversized node accepted")
	}
}

func TestSpillRejectsBadMagic(t *testing.T) {
	if _, err := ReadSpill(bytes.NewReader([]byte("TGT1rest"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadSpill(bytes.NewReader([]byte("TG"))); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestSpillTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSpillWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(Event{At: 1, Node: 2, Kind: EvWriteApply}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every strict prefix that ends mid-record must error (not EOF).
	for cut := len(whole) - 1; cut > 4; cut-- {
		sr, err := NewSpillReader(bytes.NewReader(whole[:cut]))
		if err != nil {
			t.Fatalf("cut %d: magic rejected: %v", cut, err)
		}
		if _, err := sr.Next(); err == nil || err == io.EOF {
			t.Fatalf("cut %d: truncated record read as %v", cut, err)
		}
	}
}

func TestFileSpill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.tge")
	sw, err := NewFileSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	evs := genEvents(sim.ForkRNG(5, "test/filespill"), 100)
	for _, e := range evs {
		if err := sw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadSpill(f)
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(got, evs) {
		t.Fatal("file spill round trip diverges")
	}
}

// TestWindowedSpillIsCanonicalStream checks the spill captures exactly
// the drained canonical stream.
func TestWindowedSpillIsCanonicalStream(t *testing.T) {
	rng := sim.ForkRNG(9, "test/windowed-spill")
	streams := genStreams(rng, 5, 50)
	var buf bytes.Buffer
	sw, err := NewSpillWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWindowedLog(5, 4)
	w.SetSpill(sw)
	for n, s := range streams {
		rec := w.Recorder(n)
		for _, e := range s {
			rec(e)
		}
	}
	if _, err := w.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpill(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(got, refMerge(streams)) {
		t.Fatal("spill diverges from canonical merge")
	}
}

// FuzzSpill fuzzes the TGE1 decoder: arbitrary input must never panic,
// and any stream that decodes cleanly must re-encode byte-identically
// (the format has no redundancy).
func FuzzSpill(f *testing.F) {
	var seed bytes.Buffer
	sw, _ := NewSpillWriter(&seed)
	for _, e := range genEvents(sim.ForkRNG(1, "fuzz/spill-seed"), 20) {
		sw.Write(e)
	}
	sw.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TGE1"))
	f.Add([]byte("TGT1junk"))
	f.Add(append([]byte("TGE1"), make([]byte, spillRecSize-1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadSpill(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		sw, werr := NewSpillWriter(&out)
		if werr != nil {
			t.Fatal(werr)
		}
		for _, e := range evs {
			if werr := sw.Write(e); werr != nil {
				t.Fatalf("clean decode re-encode rejected: %v", werr)
			}
		}
		if werr := sw.Flush(); werr != nil {
			t.Fatal(werr)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-encode of %d events is not byte-identical", len(evs))
		}
	})
}
