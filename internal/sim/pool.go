package sim

// The event pool: free-list recycling of event slots so the steady-state
// Schedule → fire → recycle cycle allocates nothing.
//
// Every scheduled event occupies an eventSlot drawn from its engine's
// pool. When the event fires or a canceled entry leaves the queue, the
// slot's generation counter is bumped and the slot returns to the free
// list; any Event handle still pointing at it carries the old generation
// and becomes inert (see Event.live). Slots are allocated in chunks so
// growing the pool is one allocation per poolChunk events, amortizing to
// zero in steady state.
//
// Pools are strictly per-engine (per-shard) state: slots never cross a
// shard boundary, so no locking is needed and recycling cannot race.

// eventSlot is the pooled storage behind one scheduled event.
type eventSlot struct {
	eng      *Engine
	fn       func()
	gen      uint32
	canceled bool
}

// poolChunk is the number of slots allocated per pool growth.
const poolChunk = 128

// eventPool is an engine's free list of event slots.
type eventPool struct {
	free []*eventSlot
}

// get returns a fresh slot, growing the pool by one chunk when empty.
//
//tgvet:noalloc
func (p *eventPool) get(e *Engine) *eventSlot {
	if len(p.free) == 0 {
		chunk := make([]eventSlot, poolChunk) //tgvet:allow noalloc(pool growth: one allocation per poolChunk events, amortizing to zero in steady state)
		for i := range chunk {
			chunk[i].eng = e
			p.free = append(p.free, &chunk[i]) //tgvet:allow noalloc(free-list append during the same amortized chunk growth)
		}
	}
	s := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return s
}

// put recycles a slot: the generation bump invalidates every outstanding
// handle, and dropping fn releases the callback closure to the GC.
//
//tgvet:noalloc
func (p *eventPool) put(s *eventSlot) {
	s.gen++
	s.fn = nil
	s.canceled = false
	p.free = append(p.free, s) //tgvet:allow noalloc(the free list's capacity was created by get's chunk growth; put never exceeds it in steady state)
}
