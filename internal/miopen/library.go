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

	// plans caches one launch plan per (solution, problem): the kernel
	// calls, a pure function of the pair, plus the path and the functions
	// bound at the binding last run. A warm launch neither re-derives the
	// binding key nor looks a symbol up.
	plans map[planKey]*launchPlan
}

// planKey identifies one memoized launch plan. It is a value key: keying by
// *Problem allocates more and is no faster.
type planKey struct {
	sol  Solution
	prob Problem
}

// launchPlan is how RunSolution launches one (solution, problem) pair at one
// binding: the kernel calls, the instance's store path, and one bound
// function per call (zero until first resolved, rebound whenever Reuse
// refuses it). The calls slice is shared and read-only.
type launchPlan struct {
	binding string
	path    string
	calls   []KernelCall
	fns     []backend.Function
	// buf backs fns for solutions of up to two kernels (every library
	// solution), so a plan and its functions are one allocation.
	buf [2]backend.Function
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

// RunSolution launches the instance's kernels for p on the stream. If the
// code object is absent it is loaded lazily here — the reactive behavior
// whose cost the paper attributes cold start to. Launches are
// fire-and-forget: callers that need completion synchronize the stream.
//
// Each kernel reuses the function bound on an earlier launch; one whose
// module left the registry since is resolved again with GetFunction, so a
// module evicted between two kernels of one solution still reloads.
func (l *Library) RunSolution(proc *sim.Proc, stream *device.Stream, inst Instance, p *Problem) error {
	pl := l.plan(inst, p)
	if len(pl.calls) == 0 {
		return fmt.Errorf("miopen: solution %s produced no kernels for %s", inst.Key(), p.Key())
	}
	for i := range pl.calls {
		c := &pl.calls[i]
		fn := &pl.fns[i]
		if !l.RT.Reuse(*fn) {
			f, err := l.RT.GetFunction(proc, pl.path, c.Symbol)
			if err != nil {
				return fmt.Errorf("miopen: RunSolution %s: %w", inst.Key(), err)
			}
			*fn = f
		}
		stream.LaunchWorkload(proc, fn.Name(), c.Work, c.Eff)
	}
	return nil
}

// plan returns the launch plan of inst on p through the per-library memo,
// building it on first use and rebinding it when inst's binding differs
// from the one the plan holds.
func (l *Library) plan(inst Instance, p *Problem) *launchPlan {
	if l.plans == nil {
		l.plans = make(map[planKey]*launchPlan, 64)
	}
	k := planKey{sol: inst.Sol, prob: *p}
	pl := l.plans[k]
	switch {
	case pl == nil:
		pl = &launchPlan{calls: inst.Sol.KernelCalls(p)}
		if n := len(pl.calls); n <= len(pl.buf) {
			pl.fns = pl.buf[:n]
		} else {
			pl.fns = make([]backend.Function, n)
		}
		l.plans[k] = pl
	case pl.binding == inst.Binding:
		return pl
	default:
		clear(pl.fns)
	}
	pl.binding, pl.path = inst.Binding, inst.Path()
	return pl
}
