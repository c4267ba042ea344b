// Package walltime is golden testdata for taint's walltime rule: the
// sim-time contract says simulation code never reads the host clock.
package walltime

import "time"

func simStep() {
	t0 := time.Now()             // want "wall-clock time.Now in simulation code"
	time.Sleep(time.Millisecond) // want "wall-clock time.Sleep"
	_ = time.Since(t0)           // want "wall-clock time.Since"
	_ = time.After(time.Second)  // want `wall-clock time\.After`
	tick := time.NewTicker(time.Second) // want "wall-clock time.NewTicker"
	tick.Stop()
}

// Durations and constants carry no hidden clock: not flagged.
var pollInterval = 5 * time.Millisecond

func convert(d time.Duration) float64 { return d.Seconds() }

// A declared escape hatch suppresses the diagnostic.
func benchStamp() time.Time {
	return time.Now() //tgvet:allow walltime(genuine host-side benchmark timing)
}

// A standalone annotation on the line above also covers the call.
func benchStamp2() time.Time {
	//tgvet:allow walltime(host-side measurement; exercises the standalone-comment path)
	return time.Now()
}
