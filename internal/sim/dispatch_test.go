package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// dispatchOrderGolden is the SHA-256 of dispatchScenario's trace over seeds
// 1-5. Any change to which process runs when, or to the queue length seen at
// each dispatch, changes it; every experiment golden depends on that order.
const dispatchOrderGolden = "35dfc7c82dab3aa7f59b5801a409f4fe4032dcd3413cdc18af7ad8c30502fcbc"

// dispatchScenario runs a seeded mix of every blocking primitive and writes
// the full OnDispatch stream plus the clock at the end of the run to w.
func dispatchScenario(seed int64, w func(format string, args ...any)) error {
	rng := rand.New(rand.NewSource(seed))
	e := NewEnv()
	e.OnDispatch = func(at time.Duration, proc string, queueLen int) {
		w("%d %s %d\n", at, proc, queueLen)
	}
	// Durations on a coarse grid so many events tie and order by sequence.
	dur := func() time.Duration { return time.Duration(rng.Intn(6)) * 10 * time.Microsecond }

	res := NewResource(e, 2)
	sigs := make([]*Signal, 4)
	for i := range sigs {
		sigs[i] = NewSignal(e)
		e.SpawnAt(dur()*5, fmt.Sprintf("fire%d", i), func(p *Proc) {
			p.Sleep(dur())
			sigs[i].Fire()
		})
	}
	for _, capacity := range []int{1, 3} {
		c := NewChan[int](e, capacity)
		e.Spawn(fmt.Sprintf("send%d", capacity), func(p *Proc) {
			for i := 0; i < 12; i++ {
				c.Send(p, i)
				p.Sleep(dur())
			}
			c.Close()
		})
		e.Spawn(fmt.Sprintf("recv%d", capacity), func(p *Proc) {
			for {
				if _, ok := c.Recv(p); !ok {
					return
				}
				p.Sleep(dur())
			}
		})
	}
	var worker func(name string, depth int) func(p *Proc)
	worker = func(name string, depth int) func(p *Proc) {
		return func(p *Proc) {
			for step := 0; step < 10; step++ {
				switch rng.Intn(6) {
				case 0:
					p.Sleep(0)
				case 1:
					p.Sleep(dur())
				case 2:
					if depth < 2 {
						child := fmt.Sprintf("%s.%d", name, step)
						e.SpawnAt(p.Now()+dur(), child, worker(child, depth+1))
					}
				case 3:
					sigs[rng.Intn(len(sigs))].Wait(p)
				case 4:
					res.Acquire(p)
					p.Sleep(dur())
					res.Release()
				case 5:
					p.SleepUntil(p.Now() + dur())
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, worker(name, 0))
	}
	if err := e.Run(); err != nil {
		return err
	}
	w("end %d\n", e.Now())
	return nil
}

func TestDispatchOrderGolden(t *testing.T) {
	h := sha256.New()
	lines := 0
	for seed := int64(1); seed <= 5; seed++ {
		err := dispatchScenario(seed, func(format string, args ...any) {
			fmt.Fprintf(h, format, args...)
			lines++
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if lines < 500 {
		t.Fatalf("scenario produced only %d trace lines; too small to pin the order", lines)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != dispatchOrderGolden {
		t.Fatalf("dispatch order hash = %s, want %s", got, dispatchOrderGolden)
	}
}

// A process woken by another process's Fire panics; the error names it.
func TestPanicAfterHandoffNamesProcess(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	e.Spawn("victim", func(p *Proc) {
		s.Wait(p)
		panic("boom")
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Fire()
		p.Sleep(0)
		p.Sleep(time.Second)
	})
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Proc != "victim" || pe.Value != "boom" || pe.Stack == "" {
		t.Fatalf("PanicError = {Proc: %q, Value: %v, Stack empty: %v}", pe.Proc, pe.Value, pe.Stack == "")
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("clock = %v, want 1ms", e.Now())
	}
}

// The last runnable process exits while another is still parked.
func TestDeadlockAfterLastRunnableExits(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	e.Spawn("waiter", func(p *Proc) { s.Wait(p) })
	e.Spawn("runner", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Sleep(time.Millisecond)
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if de.At != 2*time.Millisecond || !reflect.DeepEqual(de.Blocked, []string{"waiter"}) {
		t.Fatalf("DeadlockError = %+v, want At 2ms, Blocked [waiter]", de)
	}
}

// runtime.Goexit (what t.FailNow does) ends only the calling process.
func TestGoexitEndsOnlyThatProcess(t *testing.T) {
	e := NewEnv()
	var deferred, after bool
	var ticks []time.Duration
	e.Spawn("quitter", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(time.Millisecond)
		runtime.Goexit()
		after = true
	})
	e.Spawn("other", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			ticks = append(ticks, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !deferred || after {
		t.Fatalf("quitter: deferred %v, ran past Goexit %v", deferred, after)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if !reflect.DeepEqual(ticks, want) {
		t.Fatalf("other ticked at %v, want %v", ticks, want)
	}
}

// A process of one environment runs a second environment to completion.
func TestNestedEnvRunFromProcess(t *testing.T) {
	outer := NewEnv()
	var order []string
	var innerEnd time.Duration
	outer.Spawn("outer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		inner := NewEnv()
		s := NewSignal(inner)
		inner.Spawn("a", func(q *Proc) {
			s.Wait(q)
			order = append(order, fmt.Sprintf("a@%v", q.Now()))
		})
		inner.Spawn("b", func(q *Proc) {
			q.Sleep(5 * time.Second)
			s.Fire()
			order = append(order, fmt.Sprintf("b@%v", q.Now()))
		})
		if err := inner.Run(); err != nil {
			t.Error(err)
		}
		innerEnd = inner.Now()
		order = append(order, fmt.Sprintf("outer@%v", p.Now()))
		p.Sleep(time.Millisecond)
		order = append(order, fmt.Sprintf("outer@%v", p.Now()))
	})
	outer.Spawn("peer", func(p *Proc) {
		p.Sleep(1500 * time.Microsecond)
		order = append(order, fmt.Sprintf("peer@%v", p.Now()))
	})
	if err := outer.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@5s", "a@5s", "outer@1ms", "peer@1.5ms", "outer@2ms"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if innerEnd != 5*time.Second || outer.Now() != 2*time.Millisecond {
		t.Fatalf("inner ended at %v, outer at %v", innerEnd, outer.Now())
	}
}

// BenchmarkDispatch measures the engine's cost per dispatch:
//   - self: one process resumes itself (Sleep in a loop), one dispatch per op;
//   - pingpong: two processes alternate, one dispatch per op;
//   - signal: a waiter parks on a fresh Signal and a firer wakes it, one
//     park/unpark round trip (two dispatches) per op;
//   - handler: a process Sends a fresh Signal to a handler and waits on it;
//     the handler sleeps and fires it, the way a GPU stream completes a
//     launch. Three dispatches per op, none of them a goroutine switch.
func BenchmarkDispatch(b *testing.B) {
	run := func(b *testing.B, e *Env) {
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	sleeper := func(n int) func(p *Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Nanosecond)
			}
		}
	}
	b.Run("self", func(b *testing.B) {
		e := NewEnv()
		e.Spawn("p", sleeper(b.N))
		run(b, e)
	})
	b.Run("pingpong", func(b *testing.B) {
		e := NewEnv()
		e.Spawn("ping", sleeper(b.N-b.N/2))
		e.Spawn("pong", sleeper(b.N/2))
		run(b, e)
	})
	b.Run("signal", func(b *testing.B) {
		e := NewEnv()
		var cur *Signal
		e.Spawn("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				cur = NewSignal(e)
				cur.Wait(p)
			}
		})
		e.Spawn("firer", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				cur.Fire()
				p.Sleep(0)
			}
		})
		run(b, e)
	})
	b.Run("handler", func(b *testing.B) {
		e := NewEnv()
		c := NewChan[*Signal](e, 1)
		var cur *Signal
		e.SpawnHandler("handler", func(p *Proc) {
			if cur != nil {
				cur.Fire()
				cur = nil
			}
			s, ok := c.Poll(p)
			switch {
			case ok:
				cur = s
				p.StepAfter(time.Nanosecond)
			case c.Closed():
				p.End()
			}
		})
		e.Spawn("sender", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				s := NewSignal(e)
				c.Send(p, s)
				s.Wait(p)
			}
			c.Close()
		})
		run(b, e)
	})
}

// BenchmarkChan measures one Send+Recv pair on a warmed Chan that keeps
// three items buffered, so the ring wraps every few operations. Neither call
// blocks, so no dispatch is included: this is the queue's own cost.
func BenchmarkChan(b *testing.B) {
	e := NewEnv()
	c := NewChan[int](e, 8)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			c.Send(p, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Send(p, i)
			c.Recv(p)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
