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
		if sw.Records() != uint64(len(evs)) {
			t.Fatalf("Records() = %d, wrote %d", sw.Records(), len(evs))
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

func TestCheckpointRoundTrip(t *testing.T) {
	rng := sim.ForkRNG(21, "test/checkpoint")
	streams := genStreams(rng, 4, 40)
	w := NewWindowedLog(4, 8)
	recs := make([]func(Event), 4)
	for n := range recs {
		recs[n] = w.Recorder(n)
	}
	// Feed everything, drain only a prefix: the checkpoint must carry
	// both the folded prefix and the undrained suffix.
	for n, s := range streams {
		for _, e := range s {
			recs[n](e)
		}
	}
	if _, err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	ck := w.Checkpoint()
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ck2, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored := RestoreWindowedLog(ck2, 8)

	// Continuing both logs must produce identical final hashes — and
	// match the uninterrupted batch reference.
	if _, err := w.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if w.Hash() != restored.Hash() {
		t.Fatalf("restored hash %#x != original %#x", restored.Hash(), w.Hash())
	}
	if w.Merged() != restored.Merged() || w.LastAt() != restored.LastAt() {
		t.Fatalf("restored counters diverge: merged %d/%d lastAt %d/%d",
			restored.Merged(), w.Merged(), restored.LastAt(), w.LastAt())
	}
	if want := refHash(refMerge(streams)); w.Hash() != want {
		t.Fatalf("final hash %#x != batch reference %#x", w.Hash(), want)
	}
}

// FuzzCheckpoint fuzzes the TGC1 decoder: arbitrary input must never
// panic or allocate what a declared count asks for before the records
// arrive, and any checkpoint that decodes cleanly must re-encode
// byte-identically (the format has no redundancy).
func FuzzCheckpoint(f *testing.F) {
	w := NewWindowedLog(3, 8)
	for n, s := range genStreams(sim.ForkRNG(2, "fuzz/checkpoint-seed"), 3, 6) {
		rec := w.Recorder(n)
		for _, e := range s {
			rec(e)
		}
	}
	if _, err := w.Drain(5); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := w.Checkpoint().Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TGC1"))
	f.Add(append([]byte("TGC1"), make([]byte, 40)...))
	// A header that declares 2^20 nodes, and one node declaring a 2^32-record
	// window, with no records behind either count.
	huge := append([]byte("TGC1"), make([]byte, 40)...)
	huge[4+32+2] = 0x10
	f.Add(huge)
	one := append([]byte("TGC1"), make([]byte, 48)...)
	one[4+32] = 1
	one[4+40+4] = 1
	f.Add(one)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := c.Encode(&out); err != nil {
			t.Fatalf("clean decode re-encode rejected: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-encode of %d windows is not byte-identical", len(c.Windows))
		}
	})
}

func TestCheckpointRejectsCorrupt(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("TGC1\x01\x02"))); err == nil {
		t.Fatal("truncated header accepted")
	}
	w := NewWindowedLog(2, 4)
	var buf bytes.Buffer
	if err := w.Checkpoint().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for cut := buf.Len() - 1; cut > 4; cut-- {
		if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ReadCheckpoint(bytes.NewReader(append(buf.Bytes(), 0))); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
