// Package tracesink is golden testdata for the tracesink analyzer:
// HIB recorders must be built from internal/trace recorders, and a
// package in the trace pipeline must not touch the host filesystem
// outside the spill writer.
package tracesink

import (
	"os"

	"telegraphos/internal/hib"
	"telegraphos/internal/trace"
)

// The sanctioned wiring: straight from a trace log's Recorder method.
func installWindowed(h *hib.HIB, w *trace.WindowedLog, i int) {
	h.SetRecorder(w.Recorder(i))
}

// An ad-hoc closure: events it swallows never reach the merged stream.
func installRaw(h *hib.HIB) {
	h.SetRecorder(func(trace.Event) {}) // want "not built from a trace recorder"
}

// Disabling recording silently is the same hazard.
func installNil(h *hib.HIB) {
	h.SetRecorder(nil) // want "not built from a trace recorder"
}

// A tee is legitimate when declared.
func installTee(h *hib.HIB, w, w2 *trace.WindowedLog, i int) {
	stream, tee := w.Recorder(i), w2.Recorder(i)
	//tgvet:allow tracesink(declared tee: forwards every event to two recorders)
	h.SetRecorder(func(e trace.Event) { stream(e); tee(e) })
}

// This package imports internal/trace, so raw filesystem access is the
// spill writer's job.
func rawSpill(path string) error {
	f, err := os.Create(path) // want `os.Create touches the host filesystem`
	if err != nil {
		return err
	}
	return f.Close()
}

func rawRead(path string) {
	os.ReadFile(path) // want "os.ReadFile touches the host filesystem"
}

// Declared host I/O passes.
func declaredDump(path string, data []byte) {
	os.WriteFile(path, data, 0o644) //tgvet:allow tracesink(golden: declared debug dump outside the deterministic pipeline)
}
