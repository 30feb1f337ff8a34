package sim

import "testing"

// Allocation pins for the event hot path. A 32^3 LQCD run executes on
// the order of 10^8 events; these tests pin the invariant that the
// steady state — scheduling, cross-shard posting, ingestion, execution —
// performs zero heap allocations per event once the free list, heap
// array, and outbox slabs have grown to the run's working set. Any
// change that reintroduces a per-event allocation fails here instead of
// showing up as GC time in a benchmark nobody reran.

// TestStepAllocFree pins the serial engine's self-sustaining loop: an
// AtInfra event that reschedules itself must recycle through the free
// list, so Step (pop, recycle, callback, push) allocates nothing.
func TestStepAllocFree(t *testing.T) {
	eng := New()
	next := Time(0)
	var tick func()
	tick = func() {
		next = next.Add(Microsecond)
		eng.AtInfra(next, tick)
	}
	eng.AtInfra(next, tick)
	for i := 0; i < 64; i++ { // warm the free list and heap array
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(256, func() { eng.Step() }); allocs != 0 {
		t.Errorf("Engine.Step allocated %.1f objects per event, want 0", allocs)
	}
}

// TestPostAllocFree pins Engine.Post: once an outbox slab has grown to
// the round's message volume, posting is an append into reused capacity.
func TestPostAllocFree(t *testing.T) {
	eng := New()
	g := NewGroup(eng, 2, Microsecond)
	e0 := g.Engine(0)
	fn := func() {}
	const burst = 32
	for i := 0; i < burst; i++ { // grow the slab once
		e0.Post(1, Time(i), true, fn)
	}
	g.outbox[0][1] = g.outbox[0][1][:0]
	allocs := testing.AllocsPerRun(64, func() {
		for i := 0; i < burst; i++ {
			e0.Post(1, Time(i), true, fn)
		}
		g.outbox[0][1] = g.outbox[0][1][:0]
	})
	if allocs != 0 {
		t.Errorf("Engine.Post allocated %.1f objects per %d-message burst, want 0", allocs, burst)
	}
}

// TestGroupRoundAllocFree pins the full cross-shard cycle — Post into
// the outbox, barrier ingestion into the destination heap, Step on the
// destination — at zero allocations per message in steady state: the
// outbox slab is truncated in place and ingested events come from and
// return to the destination engine's free list.
func TestGroupRoundAllocFree(t *testing.T) {
	eng := New()
	g := NewGroup(eng, 2, Microsecond)
	e0, e1 := g.Engine(0), g.Engine(1)
	fn := func() {}
	now := Time(0)
	cycle := func() {
		now = now.Add(Microsecond)
		e0.Post(1, now, true, fn)
		g.ingest()
		e1.Step()
	}
	for i := 0; i < 64; i++ { // warm slab, free list, heap
		cycle()
	}
	if allocs := testing.AllocsPerRun(256, cycle); allocs != 0 {
		t.Errorf("post+ingest+step cycle allocated %.1f objects per message, want 0", allocs)
	}
}

// TestSleepAllocFree pins the proc Sleep round trip: the wake is a
// pooled event carrying the proc (no closure, no fresh *Event) and the
// handoff is a coroutine switch, so a steady sleep loop allocates
// nothing per wake.
func TestSleepAllocFree(t *testing.T) {
	eng := New()
	eng.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(Nanosecond)
		}
	})
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(256, func() { eng.Step() }); allocs != 0 {
		t.Errorf("Sleep round trip allocated %.1f objects, want 0", allocs)
	}
	eng.Shutdown()
}

// TestWakeAllocFree pins the blocking primitives' wake paths at zero
// allocations in steady state: Signal.Wait → Broadcast → wake reuses the
// waiter slice, and Semaphore block → Release → wake stores its waiter
// by value and formats no reason string.
func TestWakeAllocFree(t *testing.T) {
	t.Run("signal", func(t *testing.T) {
		eng := New()
		sig := NewSignal(eng)
		eng.Go("waiter", func(p *Proc) {
			for {
				sig.Wait(p, "tick")
			}
		})
		eng.Go("waker", func(p *Proc) {
			for {
				p.Sleep(Nanosecond)
				sig.Broadcast()
			}
		})
		cycle := func() { eng.Step(); eng.Step() } // waker wake, waiter wake
		for i := 0; i < 64; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(256, cycle); allocs != 0 {
			t.Errorf("Wait/Broadcast/wake cycle allocated %.1f objects, want 0", allocs)
		}
		eng.Shutdown()
	})
	t.Run("semaphore", func(t *testing.T) {
		eng := New()
		sem := NewSemaphore(eng, 0)
		eng.Go("acquirer", func(p *Proc) {
			for {
				sem.Acquire(p, 2)
			}
		})
		eng.Go("releaser", func(p *Proc) {
			for {
				p.Sleep(Nanosecond)
				sem.Release(2)
			}
		})
		cycle := func() { eng.Step(); eng.Step() } // releaser wake, acquirer wake
		for i := 0; i < 64; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(256, cycle); allocs != 0 {
			t.Errorf("Acquire/Release/wake cycle allocated %.1f objects, want 0", allocs)
		}
		eng.Shutdown()
	})
}
