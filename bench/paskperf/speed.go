package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// probeReference is the median cost of one probe on the host the benchmark
// was defined on (2 vCPUs of an Intel Xeon, Go 1.24). Time metrics are
// reported at that host's speed.
const probeReference = 600 * time.Microsecond

// probeEvery is the probe's sampling period; the probe costs about 1% of a
// core at this period.
const probeEvery = 50 * time.Millisecond

// speedProbe estimates how fast the host runs, with fixed work that calls no
// code of the program: two passes of integer multiply-adds over a 256 KB
// buffer, which stays in the core's own cache. The host's speed drifts by 10% to 40% over minutes, in CPU time
// as much as in wall time, and no statistic within a run cancels that.
// Dividing a run's times by its speed factor cancels about half of it.
//
// The probe samples throughout the run, beside the program, so it sees the
// host over the same stretch the program does. Each probe is timed in its
// thread's CPU time, so scheduling delays do not count. Its work stays in
// the core's cache, so the program's own memory traffic does not slow it: it
// costs no more beside the coldstart workload than alone. A probe of
// scattered memory reads also tracked the host, but it ran 70% slower
// beside the program than alone, so it would have hidden part of any
// regression in the program's memory traffic.
type speedProbe struct {
	buf  []byte
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []float64
}

// startSpeedProbe starts sampling; stop ends it.
func startSpeedProbe() *speedProbe {
	p := &speedProbe{buf: make([]byte, 256<<10), stop: make(chan struct{}), done: make(chan struct{})}
	for i := range p.buf {
		p.buf[i] = byte(i * 7)
	}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		d := p.once()
		p.mu.Lock()
		p.samples = append(p.samples, float64(d))
		p.mu.Unlock()
	}
}

func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// once runs one probe and returns its CPU time.
func (p *speedProbe) once() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	var acc uint32
	for pass := 0; pass < 2; pass++ {
		for i, b := range p.buf {
			acc = acc*31 + uint32(b)
			p.buf[i] = byte(acc)
		}
	}
	return threadCPU() - t0
}

// stopProbe ends sampling and waits for the sampler to exit.
func (p *speedProbe) stopProbe() {
	close(p.stop)
	<-p.done
}

// factor is how much slower than the reference host this run's host was so
// far: the median probe over probeReference, or 1 before any sample.
func (p *speedProbe) factor() float64 {
	p.mu.Lock()
	s := slices.Clone(p.samples)
	p.mu.Unlock()
	if len(s) == 0 {
		return 1
	}
	return median(s) / float64(probeReference)
}
