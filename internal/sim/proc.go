//go:build go1.23

// The build line raises this file's language version to go1.23, where the
// iter package and its coroutines are available, while go.mod stays at
// go1.21 (see docs/ARCHITECTURE.md, "Processes are coroutines").

package sim

import (
	"fmt"
	"iter"
)

// Proc is a coroutine process driven by an Engine. A proc runs model code
// on a runtime coroutine (iter.Pull), so the engine and all procs
// alternate strictly: at any instant exactly one of them executes, so
// models stay deterministic and need no locking. A handoff is a direct
// coroutine switch, with no trip through the goroutine scheduler.
//
// A proc may block with Sleep or on sync primitives (Signal, Semaphore,
// Queue, ByteFIFO, Resource). Blocking hands control back to the engine;
// the proc resumes when the corresponding wake event fires.
type Proc struct {
	name  string
	eng   *Engine
	next  func() (struct{}, bool) // resumes the proc; false once it ended
	yield func(struct{}) bool     // parks the proc, from inside it

	// blockedOn is the reason the proc is parked ("" while it runs).
	// blockedN, when non-negative, is an argument Blocked appends as
	// "(n)": it keeps the formatting off the blocking path.
	blockedOn string
	blockedN  int64

	launched bool // coroutine exists (start event has fired)
	dead     bool
	killed   bool
	panicVal any
}

// killSentinel is panicked inside a proc to unwind it during Shutdown.
type killSentinelType struct{}

var killSentinel = killSentinelType{}

// Go spawns a new proc named name running fn. The proc starts at the
// current simulation time (as a scheduled event, after already-queued
// events at this timestamp).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{name: name, eng: e, blockedOn: "start", blockedN: -1}
	e.procs[p] = struct{}{}
	e.After(0, func() {
		if p.launched || p.dead {
			return
		}
		p.launched = true
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			p.run(fn)
		})
		e.dispatch(p)
	})
	return p
}

// run is the coroutine body. It returns normally however fn ends: a
// kill is swallowed and a model panic is recorded for dispatch to
// re-raise on the engine side.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killSentinelType); !isKill {
				p.panicVal = r
			}
		}
	}()
	if p.killed {
		panic(killSentinel)
	}
	p.blockedOn = ""
	fn(p)
}

// dispatch resumes a parked proc and waits for it to park again or
// terminate. It must only be called from engine context (inside an event).
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	if !p.launched {
		// The start event has not fired: there is no coroutine to resume.
		// Killing an unlaunched proc just removes it; a plain dispatch
		// before launch is a sequencing bug.
		if p.killed {
			p.dead = true
			delete(e.procs, p)
			return
		}
		panic(fmt.Sprintf("sim: dispatching proc %q before its start event", p.name))
	}
	if _, alive := p.next(); alive {
		return // parked again
	}
	p.dead = true
	delete(e.procs, p)
	if p.panicVal != nil {
		panic(fmt.Sprintf("sim: proc %q panicked at %v: %v", p.name, e.now, p.panicVal))
	}
}

// block parks the proc until some engine event dispatches it again.
// Model code never calls block directly; sync primitives do.
func (p *Proc) block(reason string) { p.blockArg(reason, -1) }

// blockArg is block with a numeric argument that Blocked reports as
// reason+"(n)"; n < 0 reports reason alone.
func (p *Proc) blockArg(reason string, n int64) {
	if p.dead {
		panic("sim: blocking a dead proc")
	}
	p.blockedOn, p.blockedN = reason, n
	p.yield(struct{}{})
	if p.killed {
		panic(killSentinel)
	}
	p.blockedOn = ""
}

// blockedReason is the text Blocked reports for a parked proc.
func (p *Proc) blockedReason() string {
	if p.blockedN < 0 {
		return p.blockedOn
	}
	return fmt.Sprintf("%s(%d)", p.blockedOn, p.blockedN)
}

// Park blocks the proc until some engine event wakes it with Engine.Wake.
// It is the exported form of block, for cross-shard protocols (a proc
// waiting on a resource owned by another shard parks itself; the grant
// message posted back to its home shard wakes it). Wake must come from
// an event on the proc's own engine.
func (p *Proc) Park(reason string) { p.block(reason) }

// Wake resumes a proc parked with Park. It must be called from engine
// context (inside an event) on the proc's own engine.
func (e *Engine) Wake(p *Proc) {
	if p.eng != e {
		panic(fmt.Sprintf("sim: waking proc %q on a foreign engine", p.name))
	}
	e.dispatch(p)
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine driving this proc.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep blocks the proc for d of simulated time. Even a zero sleep
// yields: the wake goes through the event queue, preserving FIFO
// ordering with same-time events.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.eng.wakeAt(p.eng.now.Add(d), p)
	p.block("sleep")
}

// SleepUntil blocks the proc until absolute time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.Now() {
		return
	}
	p.Sleep(t.Sub(p.Now()))
}
