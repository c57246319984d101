// Package graphx reimplements the serving-framework layer of the stack (the
// MIGraphX analogue): graph optimization passes, lowering of onnx models to
// an instruction stream with per-layer solution selection against the
// primitive library's performance database, and the reactive baseline
// executor whose lazy loading causes the cold-start problem.
//
// Paper anchor: the Fig 3 serving framework (MIGraphX analogue) and the §II-A reactive baseline executor.
package graphx

import (
	"fmt"
	"sync/atomic"

	"pask/internal/blas"
	"pask/internal/kernels"
	"pask/internal/miopen"
	"pask/internal/tensor"
)

// Kind classifies a lowered instruction by the backend that executes it.
type Kind uint8

const (
	// KindPrimitive runs on the primitive library (conv/pool/activation) —
	// the instructions PASK manages.
	KindPrimitive Kind = iota
	// KindGemm runs on the BLAS library (outside PASK's default scope).
	KindGemm
	// KindBuiltin runs one of the engine's own elementwise/shuffle kernels.
	KindBuiltin
	// KindTransform is a layout-interchange kernel inserted between layers
	// whose selected solutions want different layouts (what NNV12 removes).
	KindTransform
)

var kindNames = [...]string{"primitive", "gemm", "builtin", "transform"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Instruction is one lowered operation of a compiled model.
type Instruction struct {
	Index int
	Name  string
	Kind  Kind

	// KindPrimitive
	Problem    miopen.Problem
	SolutionID string // statically selected solution family (s*)
	Binding    string // its template binding

	// KindGemm
	Gemm blas.Problem

	// KindBuiltin
	Builtin string

	// KindTransform
	XformPath string
	// XformSrc/XformDst are the layouts the transform converts between.
	XformSrc, XformDst tensor.Layout
	// XformForNext marks a transform that exists only to feed the next
	// primitive instruction's preferred layout; PASK drops it when it reuses
	// a layout-agnostic substitute for that primitive.
	XformForNext bool

	// Execution metadata for builtin/transform kernels.
	Work kernels.Workload
	Eff  float64

	OutShape tensor.Shape

	// static holds the static plan resolved against the registry of its
	// last use (KindPrimitive only), gemm the GEMM problem interned in the
	// BLAS registry of its last use (KindGemm only). Compile allocates the
	// holders and resolves the static plan against its own registry. Their
	// contents depend only on the fields above and the registry, so copies
	// of the instruction may share them.
	static *atomic.Pointer[staticPlan]
	gemm   *atomic.Pointer[blas.Interned]

	// site is the launch-site ID of a builtin or transform instruction in
	// its compile registry: a runner keeps the function it last launched
	// through at that index.
	site int
}

// staticPlan is a primitive instruction's static selection resolved against
// one registry: the problem's record, the instance and its kernel calls on
// the problem.
type staticPlan struct {
	prob  *miopen.Interned
	inst  miopen.Instance
	calls *miopen.Calls
}

// Instance resolves the statically selected solution instance against a
// registry. Only valid for KindPrimitive.
func (in *Instruction) Instance(reg *miopen.Registry) (miopen.Instance, error) {
	st, err := in.resolve(reg)
	if err != nil {
		return miopen.Instance{}, err
	}
	return st.inst, nil
}

// Static resolves the statically selected instance and the instruction's
// problem, interned, against a registry. Only valid for KindPrimitive.
func (in *Instruction) Static(reg *miopen.Registry) (miopen.Instance, *miopen.Interned, error) {
	st, err := in.resolve(reg)
	if err != nil {
		return miopen.Instance{}, nil, err
	}
	return st.inst, st.prob, nil
}

// resolve returns the instruction's static plan against reg. The plan is
// kept in the instruction's holder, so only the first use against each
// registry interns the problem and looks the solution up.
func (in *Instruction) resolve(reg *miopen.Registry) (*staticPlan, error) {
	if in.Kind != KindPrimitive {
		return nil, fmt.Errorf("graphx: instruction %d (%s) has no solution", in.Index, in.Kind)
	}
	if st := in.static.Load(); st != nil && st.prob.Registry() == reg {
		return st, nil
	}
	sol, ok := reg.ByID(in.SolutionID)
	if !ok {
		return nil, fmt.Errorf("graphx: unknown solution %q in instruction %d", in.SolutionID, in.Index)
	}
	prob := reg.Intern(&in.Problem)
	st := &staticPlan{prob: prob, inst: sol.Instance(in.Binding), calls: sol.Calls(prob)}
	in.static.Store(st)
	return st, nil
}

// InternedGemm returns the instruction's GEMM problem interned in reg,
// interning it on the first use against reg. Only valid for KindGemm.
func (in *Instruction) InternedGemm(reg *blas.Registry) *blas.Interned {
	if g := in.gemm.Load(); g != nil && g.Registry() == reg {
		return g
	}
	g := reg.Intern(&in.Gemm)
	in.gemm.Store(g)
	return g
}

// CompiledModel is the lowered, solution-annotated model the serving
// framework stores in its registry and deserializes on every cold start.
type CompiledModel struct {
	Name       string
	Batch      int
	DType      tensor.DType
	InputShape tensor.Shape
	ParamBytes int64
	Instrs     []Instruction
}

// NumInstructions returns the instruction count (what the parser walks).
func (m *CompiledModel) NumInstructions() int { return len(m.Instrs) }

// PrimitiveCount returns the number of primitive-library instructions.
func (m *CompiledModel) PrimitiveCount() int {
	n := 0
	for i := range m.Instrs {
		if m.Instrs[i].Kind == KindPrimitive {
			n++
		}
	}
	return n
}

// DistinctPrimitiveProblems returns the number of unique primitive problems
// — the "# Primitive Layers" axis of the paper's Table I.
func (m *CompiledModel) DistinctPrimitiveProblems() int {
	seen := make(map[string]bool)
	for i := range m.Instrs {
		if m.Instrs[i].Kind == KindPrimitive {
			seen[m.Instrs[i].Problem.Key()] = true
		}
	}
	return len(seen)
}

// DistinctObjects returns the set of code-object paths the statically
// selected plan will load on a cold start.
func (m *CompiledModel) DistinctObjects(reg *miopen.Registry) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	addPath := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for i := range m.Instrs {
		in := &m.Instrs[i]
		switch in.Kind {
		case KindPrimitive:
			inst, err := in.Instance(reg)
			if err != nil {
				return nil, err
			}
			addPath(inst.Path())
		case KindTransform:
			addPath(in.XformPath)
		case KindBuiltin:
			addPath(BuiltinObjectPath)
		}
	}
	return out, nil
}
