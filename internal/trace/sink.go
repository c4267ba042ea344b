package trace

// Sink consumes the canonical merged event stream one event at a time.
// The streaming trace pipeline (WindowedLog) feeds each drained event to
// every attached sink in canonical order: by time At, ties broken by
// Node, and each node's events in the order it appended them. A sink
// thus sees the whole run's stream in that order without the run ever
// materializing it.
//
// *EventLog implements Sink; attaching one retains the full stream for
// debugging or for cross-checking the online checkers in tests.
type Sink interface {
	Append(Event)
}

// Advancer is implemented by sinks that act on watermarks: after a
// drain, the pipeline calls Advance(safe) to promise that every event
// with At < safe has been delivered and no later event will precede
// safe. Online checkers use this to decide (and garbage-collect) closed
// history prefixes.
type Advancer interface {
	Advance(safe int64)
}
