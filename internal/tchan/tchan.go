// Package tchan models the TurboChannel I/O bus that connects the CPU to
// the Telegraphos HIB (§2.2.1). The bus is a single shared resource:
// transactions serialize, and their costs differ sharply by kind — an
// uncached write is latched quickly and releases the bus ("write requests
// do not stall the processor and release the TurboChannel as soon as the
// write request is latched by the HIB"), while a read transaction holds
// the processor until data returns.
package tchan

import (
	"telegraphos/internal/sim"
)

// Bus is one node's TurboChannel. Arbitration is a reservation timeline:
// each transaction reserves the interval [max(now, freeAt), +cost), so
// same-instant contenders serialize in call order — exactly the FIFO the
// old mutex provided — and a transaction parks its process once instead
// of twice (lock, then sleep).
type Bus struct {
	eng    *sim.Engine
	freeAt sim.Time

	transactions int64
	busy         sim.Time
}

// New returns an idle bus.
func New(eng *sim.Engine) *Bus {
	return &Bus{eng: eng}
}

// Transact occupies the bus for cost, blocking the calling process first
// for bus arbitration. Use one Transact per bus transaction (write latch,
// read setup, read reply, DMA beat).
func (b *Bus) Transact(p *sim.Proc, cost sim.Time) {
	b.TransactAfter(p, 0, cost, 0)
}

// TransactAfter is Transact for a caller that still owes lead of issue
// latency (e.g. the CPU's instruction-issue time) and will spend tail of
// post-bus latency (e.g. HIB service) immediately after the transaction:
// the bus slot is reserved for the instant the caller would reach it, and
// the process parks ONCE for lead + arbitration + cost + tail instead of
// sleeping each leg separately. Wake time and bus occupancy are identical
// to Sleep(lead); Transact(cost); Sleep(tail) — this exists purely to cut
// coroutine park/wake round trips on the store/load fast path.
func (b *Bus) TransactAfter(p *sim.Proc, lead, cost, tail sim.Time) {
	start := b.eng.Now() + lead
	if start < b.freeAt {
		start = b.freeAt
	}
	b.freeAt = start + cost
	b.transactions++
	b.busy += cost
	if end := b.freeAt + tail; end > b.eng.Now() {
		p.SleepUntil(end)
	}
}

// Transactions reports the cumulative transaction count.
func (b *Bus) Transactions() int64 { return b.transactions }

// Utilization reports occupancy as a fraction of elapsed simulated time.
func (b *Bus) Utilization() float64 {
	if b.eng.Now() == 0 {
		return 0
	}
	return float64(b.busy) / float64(b.eng.Now())
}
