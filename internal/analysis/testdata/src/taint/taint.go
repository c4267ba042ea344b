// Package taint is golden testdata for the taint analyzer: the
// determinism contract is transitive, so a wall-clock or global-rand
// read one helper deep taints every caller — the blind spot a check of
// one function body at a time cannot see past.
package taint

import (
	"math/rand"
	"os"
	"runtime"
	"time"
)

// hostStamp wraps the wall clock one call deep. The time.Now line is a
// direct finding under the walltime rule tag, reported once; every
// caller of hostStamp is a chain finding under taint, with the witness
// chain down to this line.
func hostStamp() int64 {
	return time.Now().UnixNano() // want `^wall-clock time\.Now in simulation code`
}

func stepClock() int64 {
	return hostStamp() // want `transitively reaches nondeterministic source`
}

func twoDeep() int64 {
	return stepClock() // want `transitively reaches nondeterministic source \(.*taint\.twoDeep → .*taint\.stepClock → .*taint\.hostStamp → time\.Now at taint\.go:19\)`
}

// rollHost wraps the process-global RNG: a globalrand direct finding.
func rollHost() int {
	return rand.Intn(6) // want `^global math/rand use \(rand\.Intn\)`
}

func shuffle() int {
	return rollHost() // want `transitively reaches nondeterministic source`
}

// Environment and host-identity reads are direct findings under taint.
func readEnv() string {
	return os.Getenv("TG_SEED") // want `nondeterministic source os.Getenv in simulation code`
}

func hostWidth() int {
	return runtime.NumCPU() // want `nondeterministic source runtime.NumCPU in simulation code`
}

// Sanctioning at the source kills the whole chain: benchCaller is clean
// because the nondeterminism below it is declared genuine.
func benchStamp() int64 {
	return time.Now().UnixNano() //tgvet:allow walltime(host-side benchmark timing; sanctioned at the source, which also clears every caller)
}

func benchCaller() int64 {
	return benchStamp()
}

// Sanctioning an edge stops propagation through that call site only.
func edgeAllowed() int64 {
	return hostStamp() //tgvet:allow taint(wall-clock progress metering on the driver side; the callee stays flagged for everyone else)
}

// Calling a clean helper taints nothing.
func pureStep(x int64) int64 { return x * 2654435761 }

func cleanCaller() int64 {
	return pureStep(7)
}
