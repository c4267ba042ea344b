package analysis_test

import (
	"testing"

	"telegraphos/internal/analysis"
	"telegraphos/internal/analysis/analysistest"
)

// TestGolden runs every analyzer over its testdata package: each
// // want comment must be reported, and nothing else may be. The
// walltime and globalrand packages hold taint's direct wall-clock and
// math/rand findings, reported under those rule tags.
func TestGolden(t *testing.T) {
	analysistest.RunSuite(t, "testdata/src", map[string]*analysis.Analyzer{
		"walltime":   analysis.AnalyzerTaint,
		"globalrand": analysis.AnalyzerTaint,
		"maporder":   analysis.AnalyzerMapOrder,
		"shardlocal": analysis.AnalyzerShardLocal,
		"eventdrop":  analysis.AnalyzerEventDrop,
		"tracesink":  analysis.AnalyzerTraceSink,
		"taint":      analysis.AnalyzerTaint,
		"noalloc":    analysis.AnalyzerNoalloc,
		"handle":     analysis.AnalyzerHandle,
	})
}
