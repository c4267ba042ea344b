// Package handle is golden testdata for the handle analyzer: pooled
// sim.Event handles are generation-checked tickets, and the analyzer
// proves their lifetime discipline — no use after Cancel, no
// double-Schedule over a live handle, no stores that outlive the firing
// round without a visible re-check.
package handle

import "telegraphos/internal/sim"

// Rule 1: use-after-Cancel within a straight-line sequence.

func useAfterCancel(eng *sim.Engine) sim.Event {
	ev := eng.Schedule(5, func() {})
	ev.Cancel()
	return ev // want `use of event handle ev after Cancel`
}

func cancelThenLive(eng *sim.Engine) bool {
	ev := eng.Schedule(5, func() {})
	ev.Cancel()
	return ev.Live() // Live() on a dead handle is the sanctioned probe
}

func cancelIsIdempotent(eng *sim.Engine) {
	ev := eng.Schedule(5, func() {})
	ev.Cancel()
	ev.Cancel() // double-Cancel is a documented no-op
}

func reassignRevives(eng *sim.Engine) sim.Event {
	ev := eng.Schedule(5, func() {})
	ev.Cancel()
	ev = eng.Schedule(7, func() {})
	return ev // fresh handle: clean
}

// Rule 2: overwriting a possibly-live handle leaks the first event.

func doubleSchedule(eng *sim.Engine) sim.Event {
	ev := eng.Schedule(5, func() {})
	ev = eng.Schedule(7, func() {}) // want `handle ev overwritten while possibly live`
	return ev
}

func cancelBetween(eng *sim.Engine) sim.Event {
	ev := eng.Schedule(5, func() {})
	ev.Cancel()
	ev = eng.Schedule(7, func() {}) // clean: the old event is dead
	return ev
}

func liveCheckBetween(eng *sim.Engine) sim.Event {
	ev := eng.Schedule(5, func() {})
	_ = ev.Live()
	ev = eng.Schedule(7, func() {}) // clean: the code inspected the old handle
	return ev
}

func allowedReschedule(eng *sim.Engine) sim.Event {
	ev := eng.Schedule(5, func() {})
	ev = eng.Schedule(7, func() {}) //tgvet:allow handle(the first timer always fires before this line in the protocol; rearming is intentional)
	return ev
}

// Rule 3: stores that outlive the firing round.

var pendingGlobal sim.Event

func storeGlobal(eng *sim.Engine) {
	pendingGlobal = eng.Schedule(5, func() {}) // want `event handle stored into package-level variable pendingGlobal`
}

type unchecked struct {
	timer sim.Event
}

func (u *unchecked) arm(eng *sim.Engine) {
	u.timer = eng.Schedule(5, func() {}) // want `event handle stored into field u.timer`
}

type disciplined struct {
	retx map[uint64]sim.Event
}

// armRetx stores into a field the package visibly Cancels: the timer
// map follows the Cancel-before-overwrite discipline, so rule 3 is
// satisfied.
func (d *disciplined) armRetx(eng *sim.Engine, seq uint64) {
	d.retx[seq].Cancel()
	d.retx[seq] = eng.Schedule(5, func() {})
}

// Local variables never outlive the round by themselves.
func localOnly(eng *sim.Engine) {
	ev := eng.Schedule(5, func() {})
	ev.Cancel()
}
