package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var at time.Duration
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", at)
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("final clock %v, want 5ms", e.Now())
	}
}

func TestSleepZeroYields(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) { p.Sleep(-1) })
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
}

func TestDeterministicTieBreakBySpawnOrder(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		e := NewEnv()
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(time.Millisecond)
				order = append(order, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("trial %d: order = %v, want ascending", trial, order)
			}
		}
	}
}

func TestSpawnAtFuture(t *testing.T) {
	e := NewEnv()
	var at time.Duration
	e.SpawnAt(3*time.Second, "late", func(p *Proc) { at = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Second {
		t.Fatalf("started at %v, want 3s", at)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEnv()
	var childAt time.Duration
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childAt = c.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 2*time.Second {
		t.Fatalf("child finished at %v, want 2s", childAt)
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Proc != "bad" || pe.Value != "boom" {
		t.Fatalf("PanicError = %+v", pe)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	e.Spawn("waiter", func(p *Proc) { s.Wait(p) })
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "waiter" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestSignalWakesAllWaitersFIFO(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var order []string
	var woke []time.Duration
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			s.Wait(p)
			order = append(order, name)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Second)
		s.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"w1", "w2", "w3"}) {
		t.Fatalf("wake order = %v", order)
	}
	if !reflect.DeepEqual(woke, []time.Duration{time.Second, time.Second, time.Second}) {
		t.Fatalf("waiters woke at %v, want all at the fire time 1s", woke)
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	s.Fire()
	var waited time.Duration
	e.Spawn("late", func(p *Proc) {
		start := p.Now()
		s.Wait(p)
		waited = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 0 {
		t.Fatalf("waited %v, want 0", waited)
	}
}

func TestSignalDoubleFireNoop(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	s.Fire()
	s.Fire()
	if !s.fired || len(s.waiters) != 0 {
		t.Fatal("signal should be fired with no waiters")
	}
}

func TestResourceSerializesCriticalSection(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	var spans [][2]time.Duration
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Sleep(10 * time.Millisecond)
			spans = append(spans, [2]time.Duration{start, p.Now()})
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Fatalf("spans overlap: %v", spans)
		}
	}
	if e.Now() != 40*time.Millisecond {
		t.Fatalf("total = %v, want 40ms", e.Now())
	}
}

func TestResourceCapacityTwoAllowsOverlap(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * time.Millisecond)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("total = %v, want 20ms with capacity 2", e.Now())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	var order []int
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Second)
		r.Release()
	})
	for i := 0; i < 5; i++ {
		i := i
		e.SpawnAt(time.Duration(i+1)*time.Millisecond, fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("order = %v, want FIFO", order)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEnv()
	r := NewResource(e, 1)
	r.Release()
}

func TestResourceUse(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	e.Spawn("u", func(p *Proc) {
		r.Acquire(p)
		if r.inUse != 1 {
			t.Errorf("slots held after Acquire = %d", r.inUse)
		}
		r.Release()
		if r.inUse != 0 {
			t.Errorf("slots held after Release = %d", r.inUse)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanFIFONoLoss(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](e, 3)
	const n = 50
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Duration(i%3) * time.Millisecond)
			c.Send(p, i)
		}
		c.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			p.Sleep(2 * time.Millisecond)
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestChanSendBlocksWhenFull(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](e, 1)
	var sentSecondAt time.Duration
	e.Spawn("producer", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2) // must block until consumer takes item 1 at t=5ms
		sentSecondAt = p.Now()
	})
	e.Spawn("consumer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		c.Recv(p)
		p.Sleep(5 * time.Millisecond)
		c.Recv(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sentSecondAt != 5*time.Millisecond {
		t.Fatalf("second send completed at %v, want 5ms", sentSecondAt)
	}
}

func TestChanRecvBlocksWhenEmpty(t *testing.T) {
	e := NewEnv()
	c := NewChan[string](e, 4)
	var recvAt time.Duration
	e.Spawn("consumer", func(p *Proc) {
		c.Recv(p)
		recvAt = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		c.Send(p, "x")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != 7*time.Millisecond {
		t.Fatalf("recv completed at %v, want 7ms", recvAt)
	}
}

func TestChanCloseReleasesReceiver(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](e, 2)
	var ok bool
	var done bool
	e.Spawn("consumer", func(p *Proc) {
		_, ok = c.Recv(p)
		done = true
	})
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || ok {
		t.Fatalf("done=%v ok=%v, want done and !ok", done, ok)
	}
}

func TestChanDrainAfterClose(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](e, 4)
	var got []int
	e.Spawn("p", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2)
		c.Close()
		for {
			v, ok := c.Recv(p)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("got %v", got)
	}
}

func TestChanSendOnClosedPanics(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](e, 1)
	c.Close()
	e.Spawn("p", func(p *Proc) { c.Send(p, 1) })
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
}

// TestPipelineTiming models the paper's three-stage parse/load/issue pipeline
// and checks the makespan equals the analytic pipelined schedule rather than
// the serial sum, i.e. the engine really lets stages overlap.
func TestPipelineTiming(t *testing.T) {
	e := NewEnv()
	const n = 8
	parse, load, exec := 1*time.Millisecond, 10*time.Millisecond, 3*time.Millisecond
	parsed := NewChan[int](e, n)
	loaded := NewChan[int](e, n)
	e.Spawn("parser", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(parse)
			parsed.Send(p, i)
		}
		parsed.Close()
	})
	e.Spawn("loader", func(p *Proc) {
		for {
			v, ok := parsed.Recv(p)
			if !ok {
				loaded.Close()
				return
			}
			p.Sleep(load)
			loaded.Send(p, v)
		}
	})
	e.Spawn("issuer", func(p *Proc) {
		for {
			_, ok := loaded.Recv(p)
			if !ok {
				return
			}
			p.Sleep(exec)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Loader is the bottleneck: parse(1) + n*load + final exec.
	want := parse + time.Duration(n)*load + exec
	if e.Now() != want {
		t.Fatalf("makespan = %v, want %v", e.Now(), want)
	}
}

// Property: for any set of sleep durations, processes complete in
// (time, spawn-order) order and the final clock equals the max duration.
func TestCompletionOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		e := NewEnv()
		type done struct {
			at  time.Duration
			idx int
		}
		var finished []done
		var maxD time.Duration
		for i, r := range raw {
			d := time.Duration(r) * time.Microsecond
			if d > maxD {
				maxD = d
			}
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, done{p.Now(), i})
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if e.Now() != maxD {
			return false
		}
		for i := 1; i < len(finished); i++ {
			a, b := finished[i-1], finished[i]
			if a.at > b.at {
				return false
			}
			if a.at == b.at && a.idx > b.idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a randomized producer/consumer pair over an SPSC Chan never
// reorders, drops or duplicates items, for any capacity and random delays,
// and the ring's backing array stays within the next power of two above the
// peak number of buffered items.
func TestChanFIFOProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8, nRaw uint8) bool {
		return chanFIFOHolds(seed, int(capRaw%8)+1, int(nRaw%64)+1, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	// A consumer that lags the producer by 3x keeps the buffer near full, so
	// the ring wraps many times at every capacity, odd ones included.
	for _, capacity := range []int{1, 2, 3, 7} {
		for seed := int64(1); seed <= 5; seed++ {
			if !chanFIFOHolds(seed, capacity, 200, 3) {
				t.Fatalf("capacity %d, seed %d: FIFO order or ring bound broken", capacity, seed)
			}
		}
	}
}

// chanFIFOHolds sends 0..n-1 through a Chan of the given capacity, with the
// consumer's random delays scaled by lag, and reports whether every item
// arrived once and in order with the backing array within the next power of
// two above the peak Len.
func chanFIFOHolds(seed int64, capacity, n, lag int) bool {
	rng := rand.New(rand.NewSource(seed))
	pd := make([]time.Duration, n)
	cd := make([]time.Duration, n)
	for i := range pd {
		pd[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
		cd[i] = time.Duration(lag*rng.Intn(1000)) * time.Microsecond
	}
	e := NewEnv()
	c := NewChan[int](e, capacity)
	var got []int
	peak, ringOK := 0, true
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(pd[i])
			c.Send(p, i)
			peak = max(peak, c.Len())
			if cap(c.buf) > nextPow2(peak) || cap(c.buf) > capacity {
				ringOK = false
			}
		}
		c.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; ; i++ {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			p.Sleep(cd[i%n])
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		return false
	}
	if !ringOK || len(got) != n {
		return false
	}
	for i, v := range got {
		if v != i {
			return false
		}
	}
	return true
}

// nextPow2 returns the smallest power of two >= n (1 for n <= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// A warmed Chan reuses its ring slots: steady-state Send+Recv allocates
// nothing, even while the ring wraps. Each run makes 100 pairs, so an
// occasional reallocation still shows in AllocsPerRun's whole-number average.
func TestChanSteadyStateAllocs(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](e, 8)
	var allocs float64
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			c.Send(p, i)
		}
		allocs = testing.AllocsPerRun(100, func() {
			for i := 0; i < 100; i++ {
				c.Send(p, i)
				c.Recv(p)
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("100 steady-state Send+Recv pairs allocate %v times, want 0", allocs)
	}
}

// Property: two identical runs produce identical event timings (determinism).
func TestDeterminismProperty(t *testing.T) {
	run := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv()
		r := NewResource(e, 2)
		c := NewChan[int](e, 3)
		var stamps []time.Duration
		for i := 0; i < 6; i++ {
			d := time.Duration(rng.Intn(500)) * time.Microsecond
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				r.Acquire(p)
				p.Sleep(d)
				r.Release()
				c.Send(p, 1)
				stamps = append(stamps, p.Now())
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for i := 0; i < 6; i++ {
				c.Recv(p)
				p.Sleep(50 * time.Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			panic(err)
		}
		return stamps
	}
	f := func(seed int64) bool {
		return reflect.DeepEqual(run(seed), run(seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnAtPastPanics(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(time.Second)
		defer func() {
			if recover() == nil {
				t.Error("expected panic for SpawnAt in the past")
			}
		}()
		e.SpawnAt(time.Millisecond, "late", func(*Proc) {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepUntilNoopInPast(t *testing.T) {
	e := NewEnv()
	var woke time.Duration
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.SleepUntil(5 * time.Millisecond) // already past: no-op
		woke = p.Now()
		p.SleepUntil(20 * time.Millisecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 20*time.Millisecond {
		t.Fatalf("woke at %v", woke)
	}
}

func TestProcNameAndEnvAccessors(t *testing.T) {
	e := NewEnv()
	e.Spawn("worker", func(p *Proc) {
		if p.Name() != "worker" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Env() != e {
			t.Error("Env accessor wrong")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: with a capacity-c resource and n unit-time jobs, the makespan is
// exactly ceil(n/c) time units — the engine implements an exact c-server
// queue.
func TestResourceMakespanProperty(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%20) + 1
		c := int(cRaw%4) + 1
		e := NewEnv()
		r := NewResource(e, c)
		for i := 0; i < n; i++ {
			e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
				r.Acquire(p)
				p.Sleep(time.Millisecond)
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		want := time.Duration((n+c-1)/c) * time.Millisecond
		return e.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
