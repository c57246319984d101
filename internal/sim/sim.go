// Package sim implements a deterministic, cooperative, process-based
// discrete-event simulation engine in virtual time.
//
// The engine is the substrate for the whole PASK reproduction — the
// substitution that replaces the paper's ROCm testbed with virtual time: host
// threads (the §III-A parser / loader / issuer), the GPU command streams, the
// storage backend and the inference server are all sim processes.
//
// There are two kinds of process, scheduled by the same (time, sequence)
// events:
//
//   - A goroutine process is an ordinary function receiving a *Proc handle,
//     run on its own goroutine. It advances virtual time with Proc.Sleep and
//     synchronizes with other processes through Signal, Resource and Chan,
//     all of which block in virtual time only.
//   - A handler (Env.SpawnHandler) has no goroutine. Each time one of its
//     events comes due, the dispatcher calls its step function inline and
//     keeps dispatching when the step returns. A step never blocks: it makes
//     its handler due again with Proc.StepAfter, parks it as a Chan's
//     receiver with Chan.Poll, or ends it with Proc.End. Sleep and Wait
//     panic on a handler, as do Chan and Resource calls that would block.
//
// A goroutine process that blocks pops the next events itself, runs any due
// handlers' steps, and hands the CPU straight to the next goroutine process,
// or simply returns when the event is its own. Exactly one goroutine (the
// running process, or Run's caller before the first handoff and after the
// last) executes at any instant, so runs are fully deterministic: events at
// equal timestamps are ordered by creation sequence.
//
// Paper anchor: the substitution for the paper's §IV ROCm testbed — every measured quantity becomes virtual time here.
package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
	"time"
)

// event is a scheduled resumption of a process.
type event struct {
	at  time.Duration
	seq int64
	p   *Proc
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). The
// sift loops are written out instead of delegating to container/heap
// because heap.Push boxes each event into an interface — one heap
// allocation per Sleep, the single hottest allocation site of the whole
// simulator. (at, seq) is a strict total order (seq is unique), so pop
// order — and with it run determinism — is identical to the generic heap.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	q := *h
	// Sift up.
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) popEvent() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	*h = q[:n]
	q = q[:n]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(r, l) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return top
}

// Env is a simulation environment: a virtual clock plus an event calendar.
// The zero value is not usable; construct with NewEnv.
type Env struct {
	now     time.Duration
	seq     int64
	q       eventHeap
	procs   map[*Proc]struct{}
	done    chan error // ends a run: nil, or the *PanicError that stopped it
	failed  error      // the *PanicError of a handler's step; ends dispatching
	running bool

	// OnDispatch, when set, observes every dispatch: the virtual time, the
	// process about to resume and the number of events still queued. The
	// tracing layer samples queue depth through it. It runs on the goroutine
	// of the process that yields or exits (or of Run's caller for a run's
	// first dispatches); it must not call back into the environment and must
	// not panic.
	OnDispatch func(at time.Duration, proc string, queueLen int)
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{
		procs: make(map[*Proc]struct{}),
		done:  make(chan error),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// nextSeq hands out monotonically increasing sequence numbers used to break
// ties between events scheduled for the same instant.
func (e *Env) nextSeq() int64 {
	e.seq++
	return e.seq
}

// Proc is the handle a process uses to interact with the environment. A Proc
// is only valid inside the function it was passed to; sharing it with another
// process is a programming error.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{} // nil for a handler
	step   func(p *Proc) // non-nil for a handler
	parked bool          // blocked with no scheduled event; woken only by unpark
	dead   bool
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Spawn registers fn as a new process that starts at the current virtual
// time. It may be called before Run or from inside a running process.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt registers fn as a new process that starts at time t, which must not
// be in the past.
func (e *Env) SpawnAt(t time.Duration, name string, fn func(p *Proc)) *Proc {
	if t < e.now {
		panic(fmt.Sprintf("sim: SpawnAt(%v) in the past (now %v)", t, e.now))
	}
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	e.procs[p] = struct{}{}
	go func() {
		<-p.resume
		defer func() {
			p.dead = true
			delete(e.procs, p)
			if r := recover(); r != nil {
				e.done <- &PanicError{Proc: p.name, Value: r, Stack: string(debug.Stack())}
				return
			}
			e.resume(e.next())
		}()
		fn(p)
	}()
	e.q.pushEvent(event{at: t, seq: e.nextSeq(), p: p})
	return p
}

// SpawnHandler registers a handler: a process without a goroutine whose
// step runs on the dispatcher's goroutine, first at the current virtual
// time and then whenever the handler comes due again. step must not block;
// see the package doc for what it may do instead.
func (e *Env) SpawnHandler(name string, step func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, step: step}
	e.procs[p] = struct{}{}
	e.q.pushEvent(event{at: e.now, seq: e.nextSeq(), p: p})
	return p
}

// StepAfter makes handler p due again after d of virtual time, as Sleep(d)
// would for a goroutine process.
func (p *Proc) StepAfter(d time.Duration) {
	if p.step == nil {
		panic("sim: StepAfter on process " + p.name + ", which is not a handler")
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: StepAfter(%v) negative duration", d))
	}
	e := p.env
	e.q.pushEvent(event{at: e.now + d, seq: e.nextSeq(), p: p})
}

// End removes handler p from the environment; events it still has pending
// are dropped.
func (p *Proc) End() {
	if p.step == nil {
		panic("sim: End on process " + p.name + ", which is not a handler")
	}
	p.dead = true
	delete(p.env.procs, p)
}

// mustBlock panics when p is a handler: op would block, and a handler has
// no goroutine to block.
func (p *Proc) mustBlock(op string) {
	if p.step != nil {
		panic("sim: " + op + " on handler " + p.name + ", which cannot block")
	}
}

// next pops events, setting the clock and reporting each dispatch, and runs
// the steps of the handlers among them. It returns the first goroutine
// process due, or nil when the calendar is drained or a step panicked.
func (e *Env) next() *Proc {
	for e.failed == nil && e.q.Len() > 0 {
		ev := e.q.popEvent()
		if ev.p.dead {
			continue
		}
		e.now = ev.at
		if e.OnDispatch != nil {
			e.OnDispatch(ev.at, ev.p.name, e.q.Len())
		}
		if ev.p.step == nil {
			return ev.p
		}
		e.runStep(ev.p)
	}
	return nil
}

// runStep runs one step of handler p, turning a panic into the run's
// *PanicError.
func (e *Env) runStep(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.failed = &PanicError{Proc: p.name, Value: r, Stack: string(debug.Stack())}
		}
	}()
	p.step(p)
}

// resume hands the CPU to process q, or back to Run when q is nil.
func (e *Env) resume(q *Proc) {
	if q == nil {
		e.done <- e.failed
		return
	}
	q.resume <- struct{}{}
}

// yield hands the CPU to the next process due and blocks until this process
// is dispatched again. When the next event is this process's own, it returns
// at once, with no goroutine switch.
func (p *Proc) yield() {
	q := p.env.next()
	if q == p {
		return
	}
	p.env.resume(q)
	<-p.resume
}

// Sleep advances the process by d of virtual time. d must be non-negative;
// Sleep(0) yields to other processes scheduled at the same instant.
func (p *Proc) Sleep(d time.Duration) {
	p.mustBlock("Sleep")
	if d < 0 {
		panic(fmt.Sprintf("sim: Sleep(%v) negative duration", d))
	}
	e := p.env
	e.q.pushEvent(event{at: e.now + d, seq: e.nextSeq(), p: p})
	p.yield()
}

// SleepUntil advances the process to absolute virtual time t (no-op if t is
// not after the current time).
func (p *Proc) SleepUntil(t time.Duration) {
	if t <= p.env.now {
		return
	}
	p.Sleep(t - p.env.now)
}

// park blocks the process until another process calls unpark on it. Used by
// the synchronization primitives in this package.
func (p *Proc) park() {
	p.mustBlock("a blocking call")
	p.parked = true
	p.yield()
}

// unpark schedules a parked process to resume at the current time. It must
// only be called for a process that is parked (or about to park in the same
// scheduling step, which cannot happen because execution is cooperative).
func (e *Env) unpark(p *Proc) {
	if !p.parked {
		panic("sim: unpark of process " + p.name + " that is not parked")
	}
	p.parked = false
	e.q.pushEvent(event{at: e.now, seq: e.nextSeq(), p: p})
}

// DeadlockError reports that the event calendar drained while processes were
// still blocked on synchronization primitives.
type DeadlockError struct {
	At      time.Duration
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: blocked processes %v", d.At, d.Blocked)
}

// PanicError wraps a panic raised inside a process.
type PanicError struct {
	Proc  string
	Value any
	Stack string
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", p.Proc, p.Value, p.Stack)
}

// Run executes events until the calendar is empty. It returns a
// *DeadlockError if blocked processes remain, or a *PanicError if a process
// or a handler's step panicked.
func (e *Env) Run() error {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	if p := e.next(); p != nil {
		p.resume <- struct{}{}
		if err := <-e.done; err != nil {
			return err
		}
	} else if e.failed != nil {
		return e.failed
	}
	if len(e.procs) > 0 {
		var blocked []string
		for p := range e.procs {
			blocked = append(blocked, p.name)
		}
		slices.Sort(blocked)
		return &DeadlockError{At: e.now, Blocked: blocked}
	}
	return nil
}
