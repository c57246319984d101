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

	checks int // IsApplicable invocations charged so far

	// disabled holds this process's solution kill switches (find-path
	// outages injected by a fault plan): Find and CheckApplicable treat
	// these solutions as inapplicable.
	disabled map[string]bool

	// memo caches IsApplicable outcomes. The verdict is a pure function of
	// (solution, binding, problem, workspace limit), so repeat queries skip
	// re-deriving binding keys and predicate walks — only the host-side CPU
	// work; the virtual-time charge and the checks counter are untouched.
	memo map[applicKey]bool

	// calls caches KernelCalls per (solution, problem), a pure function of
	// the pair, so a warm launch neither re-derives the binding key nor
	// builds a fresh slice. The cached slices are shared and read-only.
	calls map[callsKey][]KernelCall
}

// callsKey identifies one memoized KernelCalls result.
type callsKey struct {
	sol  Solution
	prob Problem
}

// applicKey identifies one memoized applicability verdict. Every field is
// comparable; WorkspaceLimit is part of the key because tests mutate it
// directly on the Ctx.
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

// ApplicabilityChecks returns the number of charged IsApplicable calls.
func (l *Library) ApplicabilityChecks() int { return l.checks }

// CheckApplicable evaluates inst.IsApplicable(p) and charges the host-side
// cost of the check — the expensive validation PASK's categorical cache
// minimizes (paper §II-B). A disabled solution is never applicable.
func (l *Library) CheckApplicable(proc *sim.Proc, inst Instance, p *Problem) bool {
	proc.Sleep(l.RT.Host().ApplicabilityCheck)
	l.checks++
	if l.disabled[inst.Sol.ID()] {
		return false
	}
	if l.memo == nil {
		l.memo = make(map[applicKey]bool, 64)
	}
	ctx := l.Reg.ctx
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
	calls := l.kernelCalls(inst.Sol, p)
	if len(calls) == 0 {
		return nil, fmt.Errorf("miopen: solution %s produced no kernels for %s", inst.Key(), p.Key())
	}
	path := inst.Path()
	var last *sim.Signal
	for _, c := range calls {
		fn, err := l.RT.GetFunction(proc, path, c.Symbol)
		if err != nil {
			return nil, fmt.Errorf("miopen: RunSolution %s: %w", inst.Key(), err)
		}
		last = stream.LaunchWorkload(proc, fn.Name(), c.Work, c.Eff)
	}
	return last, nil
}

// kernelCalls returns s.KernelCalls(p) through the per-library memo.
func (l *Library) kernelCalls(s Solution, p *Problem) []KernelCall {
	if l.calls == nil {
		l.calls = make(map[callsKey][]KernelCall, 64)
	}
	k := callsKey{sol: s, prob: *p}
	calls, ok := l.calls[k]
	if !ok {
		calls = s.KernelCalls(p)
		l.calls[k] = calls
	}
	return calls
}
