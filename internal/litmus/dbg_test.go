package litmus

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"telegraphos/internal/trace"
)

// TestDbgDump is a diagnostic, not a test: set LITMUS_DBG to a test name
// (and optionally LITMUS_DBG_PROTO to 0/1/2, LITMUS_DBG_VARIANT) to dump
// one run's merged event stream and verdict. Skipped otherwise.
//
//	LITMUS_DBG=IRIW-coherent LITMUS_DBG_PROTO=1 go test ./internal/litmus -run TestDbgDump -v
func TestDbgDump(t *testing.T) {
	name := os.Getenv("LITMUS_DBG")
	if name == "" {
		t.Skip("set LITMUS_DBG to a litmus test name")
	}
	proto, _ := strconv.Atoi(os.Getenv("LITMUS_DBG_PROTO"))
	variant, _ := strconv.Atoi(os.Getenv("LITMUS_DBG_VARIANT"))
	lt := findTest(t, name)
	log := trace.NewEventLog()
	rr, _ := run(lt, Config{Protocol: Protocol(proto), Shards: 1, Seed: 11, Variant: variant}, log)
	for _, e := range log.Events() {
		fmt.Printf("%8d n%d %-16v addr=%#x val=%#x aux=%#x\n", e.At, e.Node, e.Kind, e.Addr, e.Val, e.Aux)
	}
	fmt.Printf("outcome: [%v]  forbidden=%v witnessed=%v\nviolations: %v\n",
		rr.Outcome, rr.Forbidden, rr.Witnessed, rr.Violations)
}
