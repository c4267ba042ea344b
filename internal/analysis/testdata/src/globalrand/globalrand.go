// Package globalrand is golden testdata for taint's globalrand rule:
// all randomness must flow through per-shard sim.RNG streams.
package globalrand

import (
	"math/rand"
	_ "math/rand/v2" // want "_ import of math/rand/v2"

	"telegraphos/internal/sim"
)

func roll() int {
	return rand.Intn(6) // want "global math/rand use \\(rand.Intn\\)"
}

var source = rand.New(rand.NewSource(7)) // want "rand.New" "rand.NewSource"

// The sanctioned path is not flagged.
func sanctioned(seed uint64) int {
	return sim.ForkRNG(seed, "testdata/globalrand").Intn(6)
}

// A declared escape hatch suppresses the diagnostic.
func suppressed() int {
	return rand.Int() //tgvet:allow globalrand(exercises the suppression path)
}
