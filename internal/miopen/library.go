package miopen

import (
	"fmt"
	"slices"

	"pask/internal/backend"
	"pask/internal/device"
	"pask/internal/sim"
)

// Library is the runtime handle of the primitive library inside one process:
// it binds the solution registry to that process's device backend, charges the
// host cost of applicability checks, and runs solutions by launching their
// kernels (miopenRunSolution in the paper).
type Library struct {
	Reg *Registry
	RT  *backend.Registry

	// disabled holds this process's solution kill switches (find-path
	// outages injected by a fault plan): Find and CheckApplicable treat
	// these solutions as inapplicable.
	disabled map[string]bool

	// plans caches one launch plan per kernel-call list, that is per
	// (solution, problem): the binding last run and one function bound per
	// call. A warm launch neither re-derives the binding key nor looks a
	// symbol up.
	plans map[*Calls]*launchPlan
}

// launchPlan is how RunSolution launches one kernel-call list at one binding:
// the binding's record (and with it the store path) and one bound function
// per call (zero until first resolved, rebound whenever Reuse refuses it).
type launchPlan struct {
	b   *binding
	fns []backend.Function
	// buf backs fns for solutions of up to two kernels (every library
	// solution), so a plan and its functions are one allocation.
	buf [2]backend.Function
}

// NewLibrary binds a registry to a process runtime.
func NewLibrary(reg *Registry, rt *backend.Registry) *Library {
	return &Library{Reg: reg, RT: rt}
}

// LoadResidents maps the library's built-in generic kernels into the module
// registry — the part of opening the library binary (dlopen) that happens at
// process initialization, before any inference request is timed.
func (l *Library) LoadResidents(proc *sim.Proc) error {
	for _, inst := range l.Reg.Residents() {
		if _, err := l.RT.RegisterResident(proc, inst.Path()); err != nil {
			return err
		}
	}
	return nil
}

// Disable switches solutions off by ID in this process: the find path
// reports them unavailable from now on.
func (l *Library) Disable(ids ...string) {
	if l.disabled == nil {
		l.disabled = make(map[string]bool)
	}
	for _, id := range ids {
		l.disabled[id] = true
	}
}

// Find is the registry's ranked find step without the solutions this
// process has disabled.
func (l *Library) Find(p *Problem) []Ranked {
	return slices.DeleteFunc(l.Reg.Find(p), func(r Ranked) bool { return l.disabled[r.Inst.Sol.ID()] })
}

// CheckApplicable evaluates inst.IsApplicable(p) and charges the host-side
// cost of the check — the expensive validation PASK's categorical cache
// minimizes (paper §II-B). A disabled solution is never applicable; that
// per-process verdict is settled before the registry's shared verdict table
// is consulted, so it never enters the table.
func (l *Library) CheckApplicable(proc *sim.Proc, inst Instance, p *Problem) bool {
	proc.Sleep(l.RT.Host().ApplicabilityCheck)
	if l.disabled[inst.Sol.ID()] {
		return false
	}
	return l.Reg.applicable(inst, p)
}

// IsLoaded reports whether the instance's code object is resident.
func (l *Library) IsLoaded(inst Instance) bool {
	return l.RT.Loaded(inst.Path())
}

// EnsureLoaded loads the instance's code object if absent, charging load
// time to the calling process.
func (l *Library) EnsureLoaded(proc *sim.Proc, inst Instance) error {
	_, err := l.RT.ModuleLoad(proc, inst.Path())
	return err
}

// RunSolution launches the instance's kernels on the stream: calls is
// inst.Sol.Calls(p) for the layer's problem p, which a caller that runs the
// same layer again can hold on to; calls of another solution are an error. If the code object is absent it is
// loaded lazily here — the reactive behavior whose cost the paper
// attributes cold start to. Launches are fire-and-forget: callers that need
// completion synchronize the stream.
//
// Each kernel reuses the function bound on an earlier launch; one whose
// module left the registry since is resolved again with GetFunction, so a
// module evicted between two kernels of one solution still reloads.
func (l *Library) RunSolution(proc *sim.Proc, stream *device.Stream, inst Instance, calls *Calls) error {
	if calls.sol != inst.Sol {
		return fmt.Errorf("miopen: RunSolution %s: kernel calls belong to solution %s", inst.Key(), calls.sol.ID())
	}
	if len(calls.list) == 0 {
		return fmt.Errorf("miopen: solution %s produced no kernels for %s", inst.Key(), calls.probKey)
	}
	pl := l.plan(inst, calls)
	for i := range calls.list {
		c := &calls.list[i]
		fn := &pl.fns[i]
		if !l.RT.Reuse(*fn) {
			f, err := l.RT.GetFunction(proc, inst.b.path, c.Symbol)
			if err != nil {
				return fmt.Errorf("miopen: RunSolution %s: %w", inst.Key(), err)
			}
			*fn = f
		}
		stream.LaunchWorkload(proc, fn.Name(), c.Work, c.Eff)
	}
	return nil
}

// plan returns the launch plan of calls at inst's binding through the
// per-library memo, building it on first use and clearing its functions
// when inst's binding differs from the one the plan holds.
func (l *Library) plan(inst Instance, calls *Calls) *launchPlan {
	if l.plans == nil {
		l.plans = make(map[*Calls]*launchPlan, 64)
	}
	pl := l.plans[calls]
	switch {
	case pl == nil:
		pl = &launchPlan{}
		if n := len(calls.list); n <= len(pl.buf) {
			pl.fns = pl.buf[:n]
		} else {
			pl.fns = make([]backend.Function, n)
		}
		l.plans[calls] = pl
	case pl.b == inst.b:
		return pl
	default:
		clear(pl.fns)
	}
	pl.b = inst.b
	return pl
}
