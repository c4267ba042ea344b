// Package shardlocal is golden testdata for the shardlocal analyzer:
// blocking primitives stay in process bodies, goroutines stay inside
// the engine.
package shardlocal

import "telegraphos/internal/sim"

func blockInEventCallback(eng *sim.Engine, q *sim.Queue[int], p *sim.Proc) {
	eng.Schedule(5, func() {
		q.Get(p) // want "blocking Queue.Get inside an event callback"
	})
}

func blockInCrossShardMessage(ch *sim.Chan, sem *sim.Semaphore, p *sim.Proc) {
	ch.Send(10, func() {
		sem.Acquire(p) // want "blocking Semaphore.Acquire"
	})
}

func sleepInAtCallback(eng *sim.Engine, p *sim.Proc) {
	eng.At(100, func() {
		p.Sleep(1) // want "blocking Proc.Sleep"
	})
}

// Non-blocking operations are legal in event context: the mailbox is
// unbounded, so Put never parks.
func putInEventCallback(eng *sim.Engine, q *sim.Queue[int], sem *sim.Semaphore, p *sim.Proc) {
	eng.Schedule(5, func() {
		q.Put(p, 1)
		sem.Release()
	})
}

// Blocking from a process body is the sanctioned pattern.
func blockInProcessBody(eng *sim.Engine, q *sim.Queue[int]) {
	eng.Spawn("consumer", func(p *sim.Proc) {
		_ = q.Get(p)
	})
}

func rawGoroutine(done chan struct{}) {
	go close(done) // want "raw go statement in simulation code"
}

func allowedGoroutine(done chan struct{}) {
	//tgvet:allow shardlocal(exercises the suppression path for sanctioned launch sites)
	go close(done)
}
