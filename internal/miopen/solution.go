package miopen

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/kernels"
	"pask/internal/tensor"
)

// Pattern is the algorithmic family of a solution. The categorical cache of
// PASK groups loaded solutions by this tag (paper §III-C).
type Pattern string

const (
	PatternWinograd     Pattern = "Winograd"
	PatternGEMM         Pattern = "GEMM"
	PatternDirect       Pattern = "DirectConv"
	PatternImplicitGEMM Pattern = "ImplicitGEMM"
	PatternPooling      Pattern = "Pooling"
	PatternActivation   Pattern = "Activation"
)

// Patterns lists all known patterns in stable order.
func Patterns() []Pattern {
	return []Pattern{
		PatternWinograd, PatternGEMM, PatternDirect,
		PatternImplicitGEMM, PatternPooling, PatternActivation,
	}
}

// Ctx carries the environment a solution validates against: device
// capabilities and the workspace limit (the "environment variable
// validation" of paper §II-B). A registry's context is fixed: its
// processes share the verdicts checked against it. Solution kill switches
// are per process and live on the Library.
type Ctx struct {
	Dev     device.Profile
	wsLimit int64
}

// NewCtx returns a context for the given device with a 64 MiB workspace —
// the default scratch budget the framework grants the library.
func NewCtx(dev device.Profile) *Ctx {
	return &Ctx{Dev: dev, wsLimit: 64 << 20}
}

// KernelCall is one kernel invocation a solution issues: a symbol in the
// solution's code object plus its roofline inputs.
type KernelCall struct {
	Symbol string
	Work   kernels.Workload
	Eff    float64
}

// Solution is one algorithm implementation in the library. A Solution is a
// *family*: specialized families bind template parameters per problem
// (BindingKey), and each binding is a separate compiled code object.
// Solutions are declarative: the constructors in this package fill in the
// constraint, efficiency, binding and kernel hooks of each one, which keeps
// the generality ladder of paper Fig 4 auditable in one place.
type Solution struct {
	id        string
	pattern   Pattern
	primitive Primitive
	spec      int

	applicable func(ctx *Ctx, p *Problem) bool
	binding    func(p *Problem) string
	workspace  func(p *Problem) int64
	eff        func(p *Problem) float64
	calls      func(f *Solution, p *Problem) []KernelCall
	layout     func(p *Problem) (tensor.Layout, bool)
	objSpec    func(f *Solution, binding string) []codeobj.KernelSpec
	run        func(p *Problem, in, w, bias, out *tensor.Tensor) error

	// code-object sizing
	mainCodeSize   int
	helperSyms     int // extra kernels bundled in the object
	helperCodeSize int

	// residentBindings lists bindings whose kernels ship precompiled inside
	// the library binary (the "Bin" solvers and naive fallbacks): they are
	// mapped when the library is opened, never loaded per model.
	residentBindings []string

	// reg is the registry the solution belongs to and idx its index there.
	reg *Registry
	idx int

	// bindings is the copy-on-write binding → record table behind
	// Instance: readers load it without a lock and hash only the binding;
	// a new binding is added under bindMu by storing a copy.
	bindings atomic.Pointer[map[string]*binding]
	bindMu   sync.Mutex

	// calls is the kernel-call memo behind Calls, indexed by problem ID.
	// Readers load it without a lock; callMu serializes writers, which grow
	// it into a copy of twice the size.
	callMemo atomic.Pointer[[]atomic.Pointer[Calls]]
	callMu   sync.Mutex
}

// ID returns the solution's stable name, e.g. "ConvBinWinogradRxSFwd".
func (s *Solution) ID() string { return s.id }

// Pattern returns the algorithmic family.
func (s *Solution) Pattern() Pattern { return s.pattern }

// Specificity orders the generality ladder: higher values are more
// specialized (paper Fig 4).
func (s *Solution) Specificity() int { return s.spec }

// IsApplicable reports whether the solution can solve p under ctx without
// constraint violations. This is the expensive check PASK's categorical
// cache minimizes; time is charged by the caller.
func (s *Solution) IsApplicable(ctx *Ctx, p *Problem) bool {
	if p.Primitive != s.primitive || !p.Valid() {
		return false
	}
	if s.workspace != nil && s.workspace(p) > ctx.wsLimit {
		return false
	}
	return s.applicable(ctx, p)
}

// BindingKey returns the compile-time template binding for p ("" for
// binding-free solutions). A loaded instance only serves problems with an
// identical binding.
func (s *Solution) BindingKey(p *Problem) string {
	if s.binding == nil {
		return ""
	}
	return s.binding(p)
}

// WorkspaceSize returns the scratch memory the solution needs for p.
func (s *Solution) WorkspaceSize(p *Problem) int64 {
	if s.workspace == nil {
		return 0
	}
	return s.workspace(p)
}

// Efficiency returns the roofline efficiency in (0,1] achieved on p.
func (s *Solution) Efficiency(p *Problem) float64 {
	return clampEff(s.eff(p) * occupancy(p.Parallelism()))
}

// KernelCalls returns the kernel invocations that realize p.
func (s *Solution) KernelCalls(p *Problem) []KernelCall {
	return s.calls(s, p)
}

// Calls is the kernel-call list of one (solution, problem) pair, built once
// per solution by (*Solution).Calls and shared read-only. Its calls have
// dense IDs, unique in the registry, from first on (an empty list still
// takes one): Library indexes its per-process launch state by them.
type Calls struct {
	sol   *Solution // the solution whose Calls built the list
	first int
	list  []KernelCall
	// probKey is the problem's key when list is empty, for RunSolution's
	// error; it is not computed otherwise.
	probKey string
}

// Calls returns the memoized kernel calls of s on p, building them on first
// use. p must be interned in s's registry.
func (s *Solution) Calls(p *Interned) *Calls {
	if p.reg != s.reg {
		panic("miopen: " + s.id + ": kernel calls of a problem interned in another registry")
	}
	if t := s.callMemo.Load(); t != nil && p.id < len(*t) {
		if c := (*t)[p.id].Load(); c != nil {
			return c
		}
	}
	s.callMu.Lock()
	defer s.callMu.Unlock()
	t := s.callMemo.Load()
	if t == nil || p.id >= len(*t) {
		var old []atomic.Pointer[Calls]
		if t != nil {
			old = *t
		}
		next := make([]atomic.Pointer[Calls], max(p.id+1, 2*len(old), 16))
		for i := range old {
			next[i].Store(old[i].Load())
		}
		s.callMemo.Store(&next)
		t = &next
	}
	if c := (*t)[p.id].Load(); c != nil {
		return c
	}
	c := &Calls{sol: s, list: s.KernelCalls(&p.Problem)}
	n := max(len(c.list), 1)
	c.first = int(s.reg.nCalls.Add(int32(n))) - n
	if len(c.list) == 0 {
		c.probKey = p.Key()
	}
	(*t)[p.id].Store(c)
	return c
}

// PreferredLayout returns the data layout the solution's kernels want;
// agnostic is true when any layout works in place.
func (s *Solution) PreferredLayout(p *Problem) (layout tensor.Layout, agnostic bool) {
	if s.layout == nil {
		return tensor.NCHW, true
	}
	return s.layout(p)
}

// ObjectSpec returns the kernels compiled into the code object for the
// given binding.
func (s *Solution) ObjectSpec(binding string) []codeobj.KernelSpec {
	if s.objSpec != nil {
		return s.objSpec(s, binding)
	}
	return defaultObjSpec(s, binding)
}

// RunFunctional computes the layer on host tensors (tests and the
// functional example). w and bias are nil for non-conv primitives.
func (s *Solution) RunFunctional(p *Problem, in, w, bias, out *tensor.Tensor) error {
	return s.run(p, in, w, bias, out)
}

// binding is the interned record of one binding of a solution: the key,
// the store path of its code object and its index among the registry's
// bindings, which indexes the verdict tables. A solution holds one record
// per binding, so two instances are equal exactly when they share a record.
type binding struct {
	key  string
	path string
	idx  int
}

// intern returns s's record for the binding key, adding it on first use.
func (s *Solution) intern(key string) *binding {
	if b, ok := s.bindingTable()[key]; ok {
		return b
	}
	s.bindMu.Lock()
	defer s.bindMu.Unlock()
	old := s.bindingTable()
	if b, ok := old[key]; ok {
		return b
	}
	next := make(map[string]*binding, len(old)+1)
	maps.Copy(next, old)
	b := &binding{key: key, path: s.id + ".pko", idx: int(s.reg.nBindings.Add(1)) - 1}
	if key != "" {
		b.path = s.id + "_" + key + ".pko"
	}
	next[key] = b
	s.bindings.Store(&next)
	return b
}

// bindingTable returns the solution's current binding → record table (nil
// before the first binding).
func (s *Solution) bindingTable() map[string]*binding {
	if m := s.bindings.Load(); m != nil {
		return *m
	}
	return nil
}

// Instance is a loaded (or loadable) realization of a solution family at a
// concrete binding — the unit PASK caches and reuses. Instances are built by
// Bind or (*Solution).Instance and compare equal exactly when their solution
// and binding are equal.
type Instance struct {
	Sol *Solution
	b   *binding
}

// Instance returns s's instance at the binding key.
func (s *Solution) Instance(binding string) Instance {
	return Instance{Sol: s, b: s.intern(binding)}
}

// Bind materializes the instance implementing p with solution s.
func Bind(s *Solution, p *Problem) Instance {
	return s.Instance(s.BindingKey(p))
}

// Binding returns the instance's template binding ("" for binding-free
// solutions).
func (i Instance) Binding() string { return i.b.key }

// Path returns the code-object store path of the instance, which is also
// its unique identity.
func (i Instance) Path() string { return i.b.path }

// CacheKey returns the category the loaded-solution cache groups this
// instance under. The key is the solution's algorithmic pattern and nothing
// else: no model name, registry identity or tenant enters it, so two models
// (or two tenants on a shared GPU) whose layers bind the same solution fall
// into the same category and can substitute for each other. Cross-model
// reuse (paper §III-B/C) and the per-GPU SharedCache both depend on this
// invariant — keep model-specific state out of Pattern and BindingKey.
func (i Instance) CacheKey() Pattern { return i.Sol.Pattern() }

// IsApplicable reports whether this loaded instance can solve p: the family
// constraints must hold and p must bind to the same template parameters.
func (i Instance) IsApplicable(ctx *Ctx, p *Problem) bool {
	if !i.Sol.IsApplicable(ctx, p) {
		return false
	}
	return i.Sol.BindingKey(p) == i.b.key
}

// EstimateTime predicts the GPU time of running p with solution s on dev —
// the quantity the performance database ranks by.
func EstimateTime(dev device.Profile, s *Solution, p *Problem) time.Duration {
	return estimate(dev, s.KernelCalls(p))
}

// Estimate is EstimateTime of the list's solution and problem, summed over
// the memoized calls.
func (c *Calls) Estimate(dev device.Profile) time.Duration { return estimate(dev, c.list) }

// estimate sums the kernel times of calls on dev.
func estimate(dev device.Profile, calls []KernelCall) time.Duration {
	var total time.Duration
	for _, c := range calls {
		total += dev.KernelTime(c.Work, c.Eff)
	}
	return total
}

// clampEff bounds an efficiency into (0, 1].
func clampEff(e float64) float64 {
	if e < 0.01 {
		return 0.01
	}
	if e > 1 {
		return 1
	}
	return e
}
