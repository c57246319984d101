package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// handlerItem is one unit of work for the consumers below.
type handlerItem struct {
	d    time.Duration
	done *Signal
}

// consumerScenario runs a seeded producer feeding a consumer through a Chan,
// next to an unrelated ticking process, and returns every dispatch plus the
// time each item completed. The consumer is a goroutine process or, with
// handler set, a handler with the same control flow.
func consumerScenario(seed int64, capacity int, handler bool) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEnv()
	var trace []string
	e.OnDispatch = func(at time.Duration, proc string, queueLen int) {
		trace = append(trace, fmt.Sprintf("%d %s %d", at, proc, queueLen))
	}
	dur := func() time.Duration { return time.Duration(rng.Intn(4)) * 10 * time.Microsecond }
	c := NewChan[*handlerItem](e, capacity)
	finish := func(it *handlerItem) {
		trace = append(trace, fmt.Sprintf("done %d", e.Now()))
		it.done.Fire()
	}
	if handler {
		var cur *handlerItem
		e.SpawnHandler("consumer", func(p *Proc) {
			if cur != nil {
				finish(cur)
				cur = nil
			}
			for {
				it, ok := c.Poll(p)
				if !ok {
					if c.Closed() {
						p.End()
					}
					return
				}
				if it.d > 0 {
					cur = it
					p.StepAfter(it.d)
					return
				}
				finish(it)
			}
		})
	} else {
		e.Spawn("consumer", func(p *Proc) {
			for {
				it, ok := c.Recv(p)
				if !ok {
					return
				}
				if it.d > 0 {
					p.Sleep(it.d)
				}
				finish(it)
			}
		})
	}
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 40; i++ {
			it := &handlerItem{d: dur(), done: NewSignal(e)}
			c.Send(p, it)
			switch rng.Intn(3) {
			case 0:
				p.Sleep(dur())
			case 1:
				it.done.Wait(p)
			}
		}
		c.Close()
	})
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 30; i++ {
			p.Sleep(15 * time.Microsecond)
		}
	})
	err := e.Run()
	return trace, err
}

// A handler dispatches exactly when, and as often as, a goroutine process
// with the same control flow would.
func TestHandlerMatchesGoroutineProcess(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, capacity := range []int{1, 3} {
			want, err := consumerScenario(seed, capacity, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := consumerScenario(seed, capacity, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d capacity %d: handler trace differs from goroutine trace\n got %d lines\nwant %d lines", seed, capacity, len(got), len(want))
			}
		}
	}
}

// A handler parked on a Chan that is never closed is reported by name.
func TestHandlerParkedIsDeadlocked(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](e, 1)
	e.SpawnHandler("h", func(p *Proc) { c.Poll(p) })
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) || !reflect.DeepEqual(de.Blocked, []string{"h"}) {
		t.Fatalf("err = %v, want deadlock with h blocked", err)
	}
}

// handlerPanic runs e, whose handler "h" panics with "boom", and checks the
// *PanicError names the handler and that its stack contains frame.
func handlerPanic(t *testing.T, e *Env, frame string) {
	t.Helper()
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Proc != "h" || pe.Value != "boom" {
		t.Fatalf("PanicError = {Proc: %q, Value: %v}, want {h, boom}", pe.Proc, pe.Value)
	}
	if !strings.Contains(pe.Stack, frame) {
		t.Fatalf("step did not run under %s:\n%s", frame, pe.Stack)
	}
}

// A step that panics in Run's first dispatches ends Run; the process due
// after it never runs.
func TestHandlerPanicOnFirstDispatch(t *testing.T) {
	e := NewEnv()
	e.SpawnHandler("h", func(p *Proc) { panic("boom") })
	ran := false
	e.SpawnAt(time.Millisecond, "late", func(p *Proc) { ran = true })
	handlerPanic(t, e, "sim.(*Env).Run(")
	if ran {
		t.Fatal("process due after the panic ran")
	}
}

// A step that panics while a process yields ends Run at the step's time.
func TestHandlerPanicFromYield(t *testing.T) {
	e := NewEnv()
	steps := 0
	e.SpawnHandler("h", func(p *Proc) {
		if steps++; steps == 2 {
			panic("boom")
		}
		p.StepAfter(500 * time.Microsecond)
	})
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Millisecond) })
	handlerPanic(t, e, "sim.(*Proc).yield(")
	if e.Now() != 500*time.Microsecond {
		t.Fatalf("clock = %v, want 500µs", e.Now())
	}
}

// A step that panics after the last process exits ends Run.
func TestHandlerPanicFromExit(t *testing.T) {
	e := NewEnv()
	steps := 0
	e.SpawnHandler("h", func(p *Proc) {
		if steps++; steps == 2 {
			panic("boom")
		}
		p.StepAfter(time.Millisecond)
	})
	e.Spawn("quitter", func(p *Proc) {})
	handlerPanic(t, e, "sim.(*Env).SpawnAt.func1.1(")
}

// Every call that would block panics on a handler, naming it, instead of
// hanging the run.
func TestHandlerBlockingCallsPanic(t *testing.T) {
	cases := map[string]func(e *Env, p *Proc){
		"Sleep": func(e *Env, p *Proc) { p.Sleep(time.Millisecond) },
		"Wait":  func(e *Env, p *Proc) { NewSignal(e).Wait(p) },
		"Recv":  func(e *Env, p *Proc) { NewChan[int](e, 1).Recv(p) },
	}
	for name, call := range cases {
		e := NewEnv()
		e.SpawnHandler("stream-h", func(p *Proc) { call(e, p) })
		err := e.Run()
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Proc != "stream-h" {
			t.Fatalf("%s: err = %v, want *PanicError from stream-h", name, err)
		}
		if msg := fmt.Sprint(pe.Value); !strings.Contains(msg, "stream-h") {
			t.Fatalf("%s: panic %q does not name the handler", name, msg)
		}
	}
}

// The handler-only calls panic on a goroutine process.
func TestHandlerOnlyCallsPanicOnProcess(t *testing.T) {
	cases := map[string]func(e *Env, p *Proc){
		"StepAfter": func(e *Env, p *Proc) { p.StepAfter(0) },
		"End":       func(e *Env, p *Proc) { p.End() },
		"Poll":      func(e *Env, p *Proc) { NewChan[int](e, 1).Poll(p) },
	}
	for name, call := range cases {
		e := NewEnv()
		e.Spawn("proc", func(p *Proc) { call(e, p) })
		var pe *PanicError
		if err := e.Run(); !errors.As(err, &pe) || pe.Proc != "proc" {
			t.Fatalf("%s: err = %v, want *PanicError from proc", name, err)
		}
	}
}

// End drops the handler's pending events and removes it from the run.
func TestHandlerEndDropsPendingStep(t *testing.T) {
	e := NewEnv()
	var h *Proc
	steps := 0
	h = e.SpawnHandler("h", func(p *Proc) {
		steps++
		p.StepAfter(time.Millisecond)
	})
	e.Spawn("ender", func(p *Proc) {
		p.Sleep(1500 * time.Microsecond)
		h.End()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 2 || e.Now() != 1500*time.Microsecond {
		t.Fatalf("steps = %d, clock = %v; want 2 steps, 1.5ms", steps, e.Now())
	}
}
