package miopen

import (
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
// validation" of paper §II-B). Solution kill switches are per process and
// live on the Library.
type Ctx struct {
	Dev            device.Profile
	WorkspaceLimit int64
}

// NewCtx returns a context for the given device with a 64 MiB workspace —
// the default scratch budget the framework grants the library.
func NewCtx(dev device.Profile) *Ctx {
	return &Ctx{Dev: dev, WorkspaceLimit: 64 << 20}
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
type Solution interface {
	// ID returns the solution's stable name, e.g. "ConvBinWinogradRxSFwd".
	ID() string
	// Pattern returns the algorithmic family.
	Pattern() Pattern
	// Primitive returns the layer type the solution implements.
	Primitive() Primitive
	// Specificity orders the generality ladder: higher values are more
	// specialized (paper Fig 4).
	Specificity() int
	// IsApplicable reports whether the solution can solve p under ctx
	// without constraint violations. This is the expensive check PASK's
	// categorical cache minimizes; time is charged by the caller.
	IsApplicable(ctx *Ctx, p *Problem) bool
	// BindingKey returns the compile-time template binding for p ("" for
	// binding-free solutions). A loaded instance only serves problems with
	// an identical binding.
	BindingKey(p *Problem) string
	// WorkspaceSize returns the scratch memory the solution needs for p.
	WorkspaceSize(p *Problem) int64
	// Efficiency returns the roofline efficiency in (0,1] achieved on p.
	Efficiency(p *Problem) float64
	// KernelCalls returns the kernel invocations that realize p.
	KernelCalls(p *Problem) []KernelCall
	// ObjectSpec returns the kernels compiled into the code object for the
	// given binding.
	ObjectSpec(binding string) []codeobj.KernelSpec
	// PreferredLayout returns the data layout the solution's kernels want;
	// agnostic is true when any layout works in place.
	PreferredLayout(p *Problem) (layout tensor.Layout, agnostic bool)
	// RunFunctional computes the layer on host tensors (tests and the
	// functional example). w and bias are nil for non-conv primitives.
	RunFunctional(p *Problem, in, w, bias, out *tensor.Tensor) error
}

// Instance is a loaded (or loadable) realization of a solution family at a
// concrete binding — the unit PASK caches and reuses.
type Instance struct {
	Sol     Solution
	Binding string
}

// Bind materializes the instance implementing p with solution s.
func Bind(s Solution, p *Problem) Instance {
	return Instance{Sol: s, Binding: s.BindingKey(p)}
}

// Path returns the code-object store path of the instance. A library
// family hands out the string from its own binding table, so repeated calls
// for the same instance neither allocate nor take a lock; any other
// Solution gets a fresh concatenation.
func (i Instance) Path() string {
	if f, ok := i.Sol.(*family); ok {
		return f.path(i.Binding)
	}
	return instancePath(i.Sol.ID(), i.Binding)
}

// instancePath formats the store path of solution id at binding.
func instancePath(id, binding string) string {
	if binding == "" {
		return id + ".pko"
	}
	return id + "_" + binding + ".pko"
}

// Key returns a unique identity for the instance.
func (i Instance) Key() string { return i.Path() }

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
	return i.Sol.BindingKey(p) == i.Binding
}

// EstimateTime predicts the GPU time of running p with solution s on dev —
// the quantity the performance database ranks by.
func EstimateTime(dev device.Profile, s Solution, p *Problem) time.Duration {
	var total time.Duration
	for _, c := range s.KernelCalls(p) {
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
