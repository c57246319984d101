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
	// outages injected by a fault plan), indexed by solution index: Find
	// and CheckApplicable treat these solutions as inapplicable.
	disabled []bool

	// bound holds, at each kernel-call list's first call ID, the binding
	// the list last ran at; fns holds, at each call's ID, the function it
	// was last launched through (zero until first resolved, cleared when
	// its list runs at another binding). A warm launch neither re-derives
	// the binding key nor looks a symbol up.
	bound backend.Table[*binding]
	fns   backend.Table[backend.Function]
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
// reports them unavailable from now on. IDs the registry does not ship
// are ignored.
func (l *Library) Disable(ids ...string) {
	if l.disabled == nil {
		l.disabled = make([]bool, len(l.Reg.sols))
	}
	for _, id := range ids {
		if s, ok := l.Reg.byID[id]; ok {
			l.disabled[s.idx] = true
		}
	}
}

// isDisabled reports whether this process switched s off.
func (l *Library) isDisabled(s *Solution) bool {
	return l.disabled != nil && l.disabled[s.idx]
}

// Find is the registry's ranked find step without the solutions this
// process has disabled.
func (l *Library) Find(p *Problem) []Ranked {
	return slices.DeleteFunc(l.Reg.Find(p), func(r Ranked) bool { return l.isDisabled(r.Inst.Sol) })
}

// CheckApplicable evaluates inst.IsApplicable(p) and charges the host-side
// cost of the check — the expensive validation PASK's categorical cache
// minimizes (paper §II-B). A disabled solution is never applicable; that
// per-process verdict is settled before p's shared verdict table is
// consulted, so it never enters the table. inst and p must belong to l.Reg.
func (l *Library) CheckApplicable(proc *sim.Proc, inst Instance, p *Interned) bool {
	proc.Sleep(l.RT.Host().ApplicabilityCheck)
	if l.isDisabled(inst.Sol) {
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
		return fmt.Errorf("miopen: RunSolution %s: kernel calls belong to solution %s", inst.Path(), calls.sol.ID())
	}
	if len(calls.list) == 0 {
		return fmt.Errorf("miopen: solution %s produced no kernels for %s", inst.Path(), calls.probKey)
	}
	if b := l.bound.At(calls.first); *b != inst.b {
		if *b != nil {
			for i := range calls.list {
				*l.fns.At(calls.first + i) = backend.Function{}
			}
		}
		*b = inst.b
	}
	for i := range calls.list {
		c := &calls.list[i]
		fn := l.fns.At(calls.first + i)
		if !l.RT.Reuse(*fn) {
			f, err := l.RT.GetFunction(proc, inst.b.path, c.Symbol)
			if err != nil {
				return fmt.Errorf("miopen: RunSolution %s: %w", inst.Path(), err)
			}
			*fn = f
		}
		stream.LaunchWorkload(proc, fn.Name(), c.Work, c.Eff)
	}
	return nil
}
