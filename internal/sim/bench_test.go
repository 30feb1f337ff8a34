package sim_test

import (
	"testing"

	"apenetsim/internal/sim"
)

// BenchmarkEngineStep measures the steady-state cost of one executed
// event — heap pop, callback, reschedule, heap push — with a realistic
// standing population of pending events (a 32^3 collective holds tens of
// thousands in flight).
func BenchmarkEngineStep(b *testing.B) {
	eng := sim.New()
	const pending = 1024
	var tick func()
	tick = func() { eng.After(pending*sim.Nanosecond, tick) }
	for i := 0; i < pending; i++ {
		eng.After(sim.Duration(i)*sim.Nanosecond, tick)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkGroupRound measures the round machinery of a two-shard group
// with a ping-pong workload: each op is one cross-shard round trip — two
// windowed rounds, each carrying one Post, one barrier ingestion, one
// worker activation, and one executed event. It is the A/B meter for the
// per-round overhead (worker handoff, mailbox slabs, event pooling)
// independent of any model code.
//
// linux/amd64 (2.1 GHz Xeon, single core), -benchmem -benchtime 200000x,
// this commit:
//
//	BenchmarkGroupRound    ~1000 ns/op    0 B/op    0 allocs/op
//
// versus the seed (per-round go func + sync.WaitGroup, per-message Event
// allocation): ~1430 ns/op, 224 B/op, 6 allocs/op — the persistent
// workers and free list remove every steady-state allocation (6 -> 0
// allocs/op) and ~30% of the round-trip time on one core.
func BenchmarkGroupRound(b *testing.B) {
	eng := sim.New()
	g := sim.NewGroup(eng, 2, sim.Microsecond)
	e0, e1 := g.Engine(0), g.Engine(1)
	remaining := b.N
	var ping, pong func()
	ping = func() {
		if remaining == 0 {
			return
		}
		remaining--
		e0.Post(1, e0.Now().Add(sim.Microsecond), false, pong)
	}
	pong = func() {
		e1.Post(0, e1.Now().Add(sim.Microsecond), false, ping)
	}
	eng.At(0, ping)
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	eng.Shutdown()
}

// BenchmarkProcSwitch measures the proc handoff: each op is one Sleep
// round trip of one proc plus one Signal wake of another — two proc
// resumes, two parks and two executed events. It is the A/B meter for
// the proc mechanism and its wake events.
//
// linux/amd64 (2-vCPU Xeon VM), -benchmem -benchtime 200000x, this
// commit (iter.Pull coroutines, pooled proc-wake events):
//
//	BenchmarkProcSwitch    ~520 ns/op    0 B/op    0 allocs/op
//
// versus the parent (a wake/park channel pair per proc, a closure and an
// un-pooled *Event per wake, a fresh waiter slice per Broadcast): ~2040
// ns/op, 208 B/op, 5 allocs/op. Coroutine switches bypass the goroutine
// scheduler, and the pooled wake removes every steady-state allocation.
func BenchmarkProcSwitch(b *testing.B) {
	eng := sim.New()
	sig := sim.NewSignal(eng)
	n := b.N
	eng.Go("waiter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sig.Wait(p, "bench")
		}
	})
	eng.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
			sig.Broadcast()
		}
	})
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	eng.Shutdown()
}
