// Package sim provides a deterministic discrete-event simulation engine
// with coroutine processes.
//
// The engine owns a virtual clock and a priority queue of events. Processes
// (see Proc) are coroutines that run under a strict hand-off discipline:
// per engine, exactly one of the engine loop or a single process runs at
// any instant, so simulations are fully deterministic and race-free
// without locks.
//
// All Telegraphos hardware models (buses, links, switches, the HIB) and all
// workload programs are built on this package.
package sim

import "fmt"

// Time is a simulated timestamp or duration in nanoseconds.
//
// The zero Time is the simulation epoch. Durations and timestamps share the
// type, as is conventional in discrete-event simulators.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t with an adaptive unit, e.g. "7.20µs" or "1.50ms".
func (t Time) String() string {
	switch abs := max(t, -t); {
	case abs < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case abs < Millisecond:
		return fmt.Sprintf("%.2fµs", t.Micros())
	case abs < Second:
		return fmt.Sprintf("%.2fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}
