package miopen

import (
	"fmt"

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

	checks int // IsApplicable invocations charged so far

	// memo caches IsApplicable outcomes. The verdict is a pure function of
	// (solution, binding, problem, workspace limit) within one kill-switch
	// generation, so repeat queries skip re-deriving binding keys and
	// predicate walks — only the host-side CPU work; the virtual-time charge
	// and the checks counter are untouched.
	memo    map[applicKey]bool
	memoGen uint64
}

// applicKey identifies one memoized applicability verdict. Every field is
// comparable; WorkspaceLimit is part of the key (rather than a generation
// bump) because tests mutate it directly on the Ctx.
type applicKey struct {
	sol     Solution
	binding string
	prob    Problem
	wsLimit int64
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

// ApplicabilityChecks returns the number of charged IsApplicable calls.
func (l *Library) ApplicabilityChecks() int { return l.checks }

// CheckApplicable evaluates inst.IsApplicable(p) and charges the host-side
// cost of the check — the expensive validation PASK's categorical cache
// minimizes (paper §II-B).
func (l *Library) CheckApplicable(proc *sim.Proc, inst Instance, p *Problem) bool {
	proc.Sleep(l.RT.Host().ApplicabilityCheck)
	l.checks++
	ctx := l.Reg.ctx
	if l.memo == nil || l.memoGen != ctx.Generation() {
		l.memo = make(map[applicKey]bool, 64)
		l.memoGen = ctx.Generation()
	}
	k := applicKey{sol: inst.Sol, binding: inst.Binding, prob: *p, wsLimit: ctx.WorkspaceLimit}
	if v, ok := l.memo[k]; ok {
		return v
	}
	v := inst.IsApplicable(ctx, p)
	l.memo[k] = v
	return v
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

// RunSolution launches the instance's kernels for p on the stream and
// returns the completion signal of the last kernel. If the code object is
// absent it is loaded lazily here — the reactive behavior whose cost the
// paper attributes cold start to.
func (l *Library) RunSolution(proc *sim.Proc, stream *device.Stream, inst Instance, p *Problem) (*sim.Signal, error) {
	calls := inst.Sol.KernelCalls(p)
	if len(calls) == 0 {
		return nil, fmt.Errorf("miopen: solution %s produced no kernels for %s", inst.Key(), p.Key())
	}
	var last *sim.Signal
	for _, c := range calls {
		fn, err := l.RT.GetFunction(proc, inst.Path(), c.Symbol)
		if err != nil {
			return nil, fmt.Errorf("miopen: RunSolution %s: %w", inst.Key(), err)
		}
		last = stream.LaunchWorkload(proc, fn.Name(), c.Work, c.Eff)
	}
	return last, nil
}
