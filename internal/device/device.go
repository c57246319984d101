// Package device models the GPU and host the simulated stack runs on: a
// roofline execution model (peak FLOPs vs memory bandwidth), in-order command
// streams driven by sim handlers, busy-time accounting for utilization
// metrics, and calibrated per-device profiles (MI100, A100, RX 6900 XT)
// matching the paper's testbeds in magnitude.
//
// Paper anchor: the §IV testbed devices (MI100, A100, RX 6900 XT) as roofline stand-ins for real silicon.
package device

import (
	"fmt"
	"math"
	"time"

	"pask/internal/kernels"
	"pask/internal/sim"
)

// Profile holds the performance characteristics of one GPU plus its driver's
// code-object loading costs. Loading costs live here because they differ per
// platform (ROCm vs CUDA) and drive the per-device cold-start ratios of
// paper Fig 1(a).
type Profile struct {
	Name string // marketing name, e.g. "MI100"
	Arch string // ISA tag burned into code objects, e.g. "gfx908"

	PeakFlops float64 // peak FP32 throughput, FLOP/s
	MemBW     float64 // device memory bandwidth, bytes/s
	PCIeBW    float64 // host<->device copy bandwidth, bytes/s

	LaunchLatency  time.Duration // host-side cost to submit one kernel
	KernelOverhead time.Duration // device-side fixed startup per kernel

	ModuleLoadFixed time.Duration // per code object: open, mmap, set permissions
	ModuleLoadBW    float64       // bytes/s to read + relocate code
	SymbolResolve   time.Duration // per symbol lookup in a loaded module

	ContextInit time.Duration // GPU context creation at process start
	CodeMemory  int64         // device memory reserved for code objects, bytes
}

// KernelTime converts a workload into a duration with the roofline model at
// the given efficiency in (0, 1]: overhead + max(compute time, memory time).
// Memory throughput degrades as the square root of efficiency: streaming
// kernels saturate DRAM bandwidth with far fewer active compute units than
// arithmetic needs.
func (p Profile) KernelTime(w kernels.Workload, eff float64) time.Duration {
	if eff <= 0 || eff > 1 {
		panic(fmt.Sprintf("device: efficiency %v out of (0,1]", eff))
	}
	ct := float64(w.Flops) / (p.PeakFlops * eff)
	mt := float64(w.Bytes) / (p.MemBW * math.Sqrt(eff))
	t := ct
	if mt > t {
		t = mt
	}
	return p.KernelOverhead + time.Duration(t*float64(time.Second))
}

// LoadTime returns the time to load a code object of the given size and
// symbol count: the cost hipModuleLoad pays on a cache miss.
func (p Profile) LoadTime(sizeBytes int64, numSymbols int) time.Duration {
	return p.ModuleLoadFixed +
		time.Duration(float64(sizeBytes)/p.ModuleLoadBW*float64(time.Second)) +
		time.Duration(numSymbols)*p.SymbolResolve
}

// CopyTime returns the host<->device transfer time for n bytes.
func (p Profile) CopyTime(n int64) time.Duration {
	return time.Duration(float64(n) / p.PCIeBW * float64(time.Second))
}

// HostProfile holds the host-side framework costs: model parsing, library
// bookkeeping, and the applicability-check cost that PASK's categorical
// cache minimizes (paper §II-B).
type HostProfile struct {
	ParseInstr         time.Duration // deserialize one lowered instruction
	ModelOpen          time.Duration // open + map the compiled model file
	ApplicabilityCheck time.Duration // one Solution.IsApplicable evaluation
	CacheQueryFixed    time.Duration // fixed overhead per GetSubSolution query
	FindDBLookup       time.Duration // perf-db lookup for one problem
	SyncOverhead       time.Duration // one host<->device synchronization
	IterOverhead       time.Duration // per-inference framework bookkeeping
	ResidentMap        time.Duration // map one library-resident code object
}

// DefaultHost returns the host profile used across experiments (EPYC-class
// server per the paper's testbed).
func DefaultHost() HostProfile {
	return HostProfile{
		ParseInstr:         60 * time.Microsecond,
		ModelOpen:          2 * time.Millisecond,
		ApplicabilityCheck: 60 * time.Microsecond,
		CacheQueryFixed:    4 * time.Microsecond,
		FindDBLookup:       30 * time.Microsecond,
		SyncOverhead:       15 * time.Microsecond,
		IterOverhead:       3 * time.Millisecond,
		ResidentMap:        400 * time.Microsecond,
	}
}

// kernelWork is one entry in a stream's in-order queue.
type kernelWork struct {
	name string
	dur  time.Duration
	done *sim.Signal
	copy bool // DMA transfer: occupies the queue but is not "computing"
}

// Stream is an in-order GPU command queue. Exactly one host process may
// submit to a stream (the SPSC discipline of sim.Chan); the stream's own
// sim handler executes submissions in FIFO order. The handler has no
// goroutine: the dispatcher runs its step inline whenever the running item
// finishes or a submission arrives at an idle stream.
type Stream struct {
	id    int
	gpu   *GPU
	queue *sim.Chan[kernelWork]

	cur     kernelWork    // the item executing, while running
	running bool          // cur occupies the stream until its step comes due
	start   time.Duration // when cur started
}

// GPU is one simulated device: a profile, streams, and busy-interval union
// accounting used for the utilization results (paper Fig 6b).
type GPU struct {
	Profile Profile

	env     *sim.Env
	streams []*Stream

	active      int
	activeSince time.Duration
	busy        time.Duration

	// OnKernel, when set, observes every executed kernel (used by the
	// metrics tracer). start/end are virtual times.
	OnKernel func(name string, start, end time.Duration)

	kernelCount int
}

// NewGPU creates a device with one default stream.
func NewGPU(env *sim.Env, prof Profile) *GPU {
	g := &GPU{Profile: prof, env: env}
	g.NewStream()
	return g
}

// NewStream creates an additional in-order command queue.
func (g *GPU) NewStream() *Stream {
	s := &Stream{id: len(g.streams), gpu: g, queue: sim.NewChan[kernelWork](g.env, 1<<14)}
	g.streams = append(g.streams, s)
	g.env.SpawnHandler(fmt.Sprintf("gpu-stream-%d", s.id), s.step)
	return s
}

// DefaultStream returns stream 0.
func (g *GPU) DefaultStream() *Stream { return g.streams[0] }

// BusyTime returns the accumulated union of intervals during which at least
// one kernel was executing.
func (g *GPU) BusyTime() time.Duration {
	if g.active > 0 {
		return g.busy + (g.env.Now() - g.activeSince)
	}
	return g.busy
}

// KernelCount returns the number of kernels executed so far.
func (g *GPU) KernelCount() int { return g.kernelCount }

func (g *GPU) kernelStart() {
	if g.active == 0 {
		g.activeSince = g.env.Now()
	}
	g.active++
}

func (g *GPU) kernelEnd() {
	g.active--
	if g.active == 0 {
		g.busy += g.env.Now() - g.activeSince
	}
}

// step is the stream's handler. It finishes the item that was running, if
// any, then takes queued items in FIFO order: zero-duration ones complete at
// once, and the first that takes time runs until the handler is next due.
// An empty queue parks the handler until a submission or Close; a closed,
// drained one ends it.
func (s *Stream) step(p *sim.Proc) {
	if s.running {
		w := s.cur
		s.cur, s.running = kernelWork{}, false
		if !w.copy {
			s.gpu.kernelEnd()
			s.gpu.kernelCount++
			if s.gpu.OnKernel != nil {
				s.gpu.OnKernel(w.name, s.start, p.Now())
			}
		}
		if w.done != nil {
			w.done.Fire()
		}
	}
	for {
		w, ok := s.queue.Poll(p)
		if !ok {
			if s.queue.Closed() {
				p.End()
			}
			return
		}
		if w.dur > 0 {
			if !w.copy { // DMA occupies the in-order queue, not the CUs
				s.start = p.Now()
				s.gpu.kernelStart()
			}
			s.cur, s.running = w, true
			p.StepAfter(w.dur)
			return
		}
		if w.done != nil {
			w.done.Fire()
		}
	}
}

// Launch submits a kernel asynchronously, charging the host LaunchLatency to
// the calling process, and returns a completion signal.
func (s *Stream) Launch(p *sim.Proc, name string, dur time.Duration) *sim.Signal {
	p.Sleep(s.gpu.Profile.LaunchLatency)
	done := sim.NewSignal(p.Env())
	s.queue.Send(p, kernelWork{name: name, dur: dur, done: done})
	return done
}

// LaunchWorkload converts a workload to a duration with the device roofline
// and submits it fire-and-forget: no completion signal is allocated, since
// callers that need completion synchronize the stream. Dropping the signal
// cannot reorder events — making one takes no sequence number and firing
// one nobody waits on schedules nothing.
func (s *Stream) LaunchWorkload(p *sim.Proc, name string, w kernels.Workload, eff float64) {
	p.Sleep(s.gpu.Profile.LaunchLatency)
	s.queue.Send(p, kernelWork{name: name, dur: s.gpu.Profile.KernelTime(w, eff)})
}

// Copy models a host<->device memcpy of n bytes as stream work. Copies hold
// the queue for their duration but do not count as GPU compute time.
func (s *Stream) Copy(p *sim.Proc, name string, n int64) *sim.Signal {
	p.Sleep(s.gpu.Profile.LaunchLatency)
	done := sim.NewSignal(p.Env())
	s.queue.Send(p, kernelWork{name: name, dur: s.gpu.Profile.CopyTime(n), done: done, copy: true})
	return done
}

// Synchronize blocks the calling process until all previously submitted work
// on the stream has finished.
func (s *Stream) Synchronize(p *sim.Proc) {
	done := sim.NewSignal(p.Env())
	s.queue.Send(p, kernelWork{name: "sync-marker", done: done})
	done.Wait(p)
}

// Close ends the stream's handler once it has run everything already
// queued; used by tests and experiments that need clean environment
// termination.
func (s *Stream) Close() { s.queue.Close() }

// CloseAll closes every stream of the device.
func (g *GPU) CloseAll() {
	for _, s := range g.streams {
		s.Close()
	}
}
