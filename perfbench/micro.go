package main

import (
	"math/rand"
	"runtime"
	"time"

	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/pcie"
	"apenetsim/internal/rdma"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
	"apenetsim/internal/v2p"
)

// The layer microbenchmarks run a fixed number of operations through each
// module's public API. Each is repeated microReps times on fresh state;
// ns/op is the median repetition and allocs/op the heap allocations of
// the last one, so exact allocation counts repeat from run to run.
const microReps = 5

// micro is one microbenchmark result.
type micro struct{ ns, allocs float64 }

// measure builds fresh state with mk, then times run(ops). mk returns the
// function to time and an optional teardown.
func measure(ops int, mk func() (run func(), done func())) micro {
	var ns []float64
	var allocs float64
	for rep := 0; rep < microReps; rep++ {
		run, done := mk()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run()
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if done != nil {
			done()
		}
		ns = append(ns, float64(el.Nanoseconds())/float64(ops))
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	}
	return micro{median(ns), roundTo(allocs, 3)}
}

func roundTo(x float64, digits int) float64 {
	p := 1.0
	for i := 0; i < digits; i++ {
		p *= 10
	}
	if x < 0 {
		return -float64(int64(-x*p+0.5)) / p
	}
	return float64(int64(x*p+0.5)) / p
}

// standingEvents is the pending-event population of the engine
// microbenchmark, the order of an 8x8x8 collective world's peak.
const standingEvents = 4608

// microEngineStep times Engine.Step with standingEvents events queued,
// each rescheduling itself with After.
func microEngineStep() micro {
	const ops = 1 << 20
	return measure(ops, func() (func(), func()) {
		eng := sim.New()
		var tick func()
		tick = func() { eng.After(standingEvents*sim.Nanosecond, tick) }
		for i := 0; i < standingEvents; i++ {
			eng.After(sim.Duration(i)*sim.Nanosecond, tick)
		}
		return func() {
			for i := 0; i < ops; i++ {
				eng.Step()
			}
		}, nil
	})
}

// microProcSwitch times one Proc.Sleep round trip plus one Signal wake of
// a second proc.
func microProcSwitch() micro {
	const ops = 100000
	return measure(ops, func() (func(), func()) {
		eng := sim.New()
		sig := sim.NewSignal(eng)
		return func() {
			eng.Go("waiter", func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					sig.Wait(p, "micro")
				}
			})
			eng.Go("sleeper", func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					p.Sleep(sim.Nanosecond)
					sig.Broadcast()
				}
			})
			eng.Run()
		}, eng.Shutdown
	})
}

// microGroupRound times one round of a two-shard group carrying a Post
// ping-pong: each round delivers one cross-shard message.
func microGroupRound() micro {
	const trips = 50000
	m := measure(trips, func() (func(), func()) {
		eng := sim.New()
		g := sim.NewGroup(eng, 2, sim.Microsecond)
		e0, e1 := g.Engine(0), g.Engine(1)
		remaining := trips
		var ping, pong func()
		ping = func() {
			if remaining == 0 {
				return
			}
			remaining--
			e0.Post(1, e0.Now().Add(sim.Microsecond), false, pong)
		}
		pong = func() { e1.Post(0, e1.Now().Add(sim.Microsecond), false, ping) }
		eng.At(0, ping)
		return eng.Run, eng.Shutdown
	})
	// A round trip is two rounds.
	return micro{m.ns / 2, m.allocs / 2}
}

// microReserveTail times Channel.Reserve on the long-lived-link pattern:
// bursts booked one after another just past the calendar's tail.
func microReserveTail() micro {
	const ops = 1 << 20
	return measure(ops, func() (func(), func()) {
		c := pcie.NewChannel(sim.New(), "tail", 4000*units.MBps)
		return func() {
			from := sim.Time(0)
			for i := 0; i < ops; i++ {
				_, end := c.Reserve(from, 4*units.KB)
				from = end.Add(sim.Nanosecond)
			}
		}, nil
	})
}

// microReserveInsert times Channel.ReserveRaw booking at seeded random
// points of a 100 ms window, which inserts mid-calendar.
func microReserveInsert() micro {
	const ops = 20000
	return measure(ops, func() (func(), func()) {
		c := pcie.NewChannel(sim.New(), "insert", 4000*units.MBps)
		rng := rand.New(rand.NewSource(1))
		return func() {
			for i := 0; i < ops; i++ {
				c.ReserveRaw(sim.Time(rng.Int63n(int64(100*sim.Millisecond))), 512)
			}
		}, nil
	})
}

// microPut times single-packet PUTs streamed from one node to its torus
// neighbor: TX, wire and RX of one packet per op. Buffer registration
// runs before the timer starts.
func microPut(kind core.MemKind) micro {
	const ops = 4000
	const msg = 4 * units.KB
	return measure(ops, func() (func(), func()) {
		eng := sim.New()
		cl, err := cluster.TwoNodes(eng, nil, core.DefaultConfig(), 0)
		if err != nil {
			panic(err)
		}
		epS, epR := rdma.NewEndpoint(cl.Nodes[0].Card), rdma.NewEndpoint(cl.Nodes[1].Card)
		var src, dst *rdma.Buffer
		eng.Go("register", func(p *sim.Proc) {
			src = newBuffer(p, epS, cl.Nodes[0].GPU(0), kind, msg)
			dst = newBuffer(p, epR, cl.Nodes[1].GPU(0), kind, msg)
		})
		eng.Run()
		return func() {
			eng.Go("recv", func(p *sim.Proc) { epR.DrainRecvs(p, ops) })
			eng.Go("send", func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					put(p, epS, 1, dst, src, msg)
				}
				epS.DrainSends(p, ops)
			})
			eng.Run()
		}, eng.Shutdown
	})
}

// microHop estimates the host cost of one forwarded hop: the same PUT
// stream across 1 and across 8 links of a 16-node ring, alternated rep by
// rep; the difference per extra hop and packet is the forwarding cost.
func microHop() float64 {
	const ops = 400
	const msg = 64 * units.KB // 16 packets
	const ring, far = 16, 8
	stream := func(dst int) float64 {
		eng := sim.New()
		defer eng.Shutdown()
		cfg := core.DefaultConfig()
		cl, err := cluster.New(eng, nil, torus.Dims{X: ring, Y: 1, Z: 1}, ring, func(int) cluster.NodeConfig {
			return cluster.NodeConfig{Card: &cfg}
		})
		if err != nil {
			panic(err)
		}
		epS, epR := rdma.NewEndpoint(cl.Nodes[0].Card), rdma.NewEndpoint(cl.Nodes[dst].Card)
		var src, buf *rdma.Buffer
		eng.Go("register", func(p *sim.Proc) {
			src = newBuffer(p, epS, nil, core.HostMem, msg)
			buf = newBuffer(p, epR, nil, core.HostMem, msg)
		})
		eng.Run()
		eng.Go("recv", func(p *sim.Proc) { epR.DrainRecvs(p, ops) })
		eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				put(p, epS, dst, buf, src, msg)
			}
			epS.DrainSends(p, ops)
		})
		t0 := time.Now()
		eng.Run()
		return float64(time.Since(t0).Nanoseconds())
	}
	var near, away []float64
	for rep := 0; rep < 2*microReps; rep++ {
		near = append(near, stream(1))
		away = append(away, stream(far))
	}
	packets := float64(ops) * float64(msg/(4*units.KB))
	return (median(away) - median(near)) / (far - 1) / packets
}

// microTranslate times one RX address translation through the firmware
// walk and through the hardware TLB, the latter over a working set twice
// the TLB's reach so both hits and misses occur.
func microTranslate() (walk, tlb micro) {
	const ops = 1 << 20
	cfg := core.DefaultConfig()
	costs := v2p.Costs{BufListBase: cfg.RXBufListBase, PerBuffer: cfg.RXPerBuffer, Walk: cfg.RXV2PWalk}
	geo := v2p.DefaultTLB()
	page := uint64(geo.PageBytes)
	pages := uint64(2 * geo.Entries)
	translate := func(t v2p.Translator) func() {
		return func() {
			for i := uint64(0); i < ops; i++ {
				t.Translate((i*7%pages)*page, 2, true)
			}
		}
	}
	walk = measure(ops, func() (func(), func()) { return translate(v2p.NewFirmwareWalk(costs)), nil })
	tlb = measure(ops, func() (func(), func()) { return translate(v2p.NewHardwareTLB(costs, geo)), nil })
	return walk, tlb
}
