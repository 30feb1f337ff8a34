package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	e := New()
	var wakes []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			wakes = append(wakes, p.Now())
		}
	})
	e.Run()
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	if len(wakes) != 3 {
		t.Fatalf("wakes = %v", wakes)
	}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wake %d = %v, want %v", i, wakes[i], want[i])
		}
	}
	if len(e.procs) != 0 {
		t.Fatal("proc not reaped after completion")
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * Nanosecond)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * Nanosecond)
		order = append(order, "b1")
	})
	e.Run()
	got := strings.Join(order, ",")
	if got != "a0,b0,b1,a2" {
		t.Fatalf("order = %s", got)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New()
	e.Go("boom", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("kapow")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate out of Run")
		}
		msg := r.(string)
		want := fmt.Sprintf("sim: proc %q panicked at %v: kapow", "boom", Time(Nanosecond))
		if msg != want {
			t.Fatalf("panic message %q, want %q (proc name, sim time, cause)", msg, want)
		}
		if len(e.procs) != 0 {
			t.Fatal("panicked proc not reaped")
		}
	}()
	e.Run()
}

// waitGoroutines polls until runtime.NumGoroutine is back to want: the
// count of a goroutine that just exited may lag its exit by a moment.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != want {
		t.Fatalf("NumGoroutine = %d after Shutdown, want %d", got, want)
	}
}

// TestProcShutdownReleasesGoroutines checks that Shutdown leaves no
// coroutine behind, whatever state each proc is in: parked on a signal,
// sleeping, never started, or already finished.
func TestProcShutdownReleasesGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Engine)
		run   func(e *Engine)
	}{
		{"parked", func(e *Engine) {
			sig := NewSignal(e)
			e.Go("parked", func(p *Proc) {
				for {
					sig.Wait(p, "idle")
				}
			})
		}, func(e *Engine) { e.Run() }},
		{"sleeping", func(e *Engine) {
			e.Go("sleeping", func(p *Proc) { p.Sleep(Second) })
		}, func(e *Engine) { e.RunUntil(Time(Microsecond)) }},
		{"never-started", func(e *Engine) {
			e.Go("never-started", func(p *Proc) {})
		}, func(e *Engine) {}},
		{"finished", func(e *Engine) {
			e.Go("finished", func(p *Proc) { p.Sleep(Nanosecond) })
		}, func(e *Engine) { e.Run() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New()
			for i := 0; i < 8; i++ {
				c.setup(e)
			}
			c.run(e)
			e.Shutdown()
			if len(e.procs) != 0 {
				t.Fatalf("%d procs remain after Shutdown", len(e.procs))
			}
			waitGoroutines(t, before)
		})
	}
}

func TestProcShutdown(t *testing.T) {
	e := New()
	sig := NewSignal(e)
	cleanupRan := false
	e.Go("server", func(p *Proc) {
		defer func() { cleanupRan = true }()
		for {
			sig.Wait(p, "idle")
		}
	})
	e.Run()
	if got := e.Blocked(); len(got) != 1 || got[0] != "server: idle" {
		t.Fatalf("Blocked() = %v", got)
	}
	e.Shutdown()
	if len(e.procs) != 0 {
		t.Fatal("procs remain after Shutdown")
	}
	if cleanupRan {
		// Kill unwinds via panic, so deferred cleanup DOES run; both
		// behaviors are defensible but we promise deferred cleanup runs.
	}
	if !cleanupRan {
		t.Fatal("deferred cleanup did not run on Shutdown")
	}
}

func TestProcShutdownBeforeStart(t *testing.T) {
	e := New()
	ran := false
	e.Go("late", func(p *Proc) { ran = true })
	// Shutdown before Run: the start event has not fired.
	e.Shutdown()
	e.Run()
	if ran {
		t.Fatal("killed proc body ran")
	}
}

func TestProcSleepUntil(t *testing.T) {
	e := New()
	e.Go("u", func(p *Proc) {
		p.SleepUntil(Time(5 * Microsecond))
		if p.Now() != Time(5*Microsecond) {
			t.Errorf("now = %v", p.Now())
		}
		p.SleepUntil(Time(1 * Microsecond)) // in the past: no-op
		if p.Now() != Time(5*Microsecond) {
			t.Errorf("now moved backwards: %v", p.Now())
		}
	})
	e.Run()
}

func TestManyProcsDeterminism(t *testing.T) {
	run := func() []string {
		e := New()
		var order []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(1+j) * Microsecond)
					order = append(order, name)
				}
			})
		}
		e.Run()
		return order
	}
	a := strings.Join(run(), "")
	for i := 0; i < 3; i++ {
		if b := strings.Join(run(), ""); b != a {
			t.Fatalf("nondeterministic proc interleaving:\n%s\n%s", a, b)
		}
	}
}
