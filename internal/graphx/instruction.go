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

	// static is the static plan Compile resolved against its registry
	// (KindPrimitive only), gemm the GEMM problem MaterializeModel interned
	// in the set-up's BLAS registry (KindGemm only). Each is written once
	// and binds the model to that one set-up: every other registry is
	// refused.
	static *staticPlan
	gemm   *blas.Interned

	// site is the launch-site ID of a builtin or transform instruction in
	// its compile registry: a runner keeps the function it last launched
	// through at that index.
	site int
}

// staticPlan is a primitive instruction's static selection resolved against
// its compile registry: the problem's record, the instance and its kernel
// calls on the problem.
type staticPlan struct {
	prob  *miopen.Interned
	inst  miopen.Instance
	calls *miopen.Calls
}

// Instance returns the statically selected solution instance; reg must be
// the registry the model was compiled against. Only valid for
// KindPrimitive.
func (in *Instruction) Instance(reg *miopen.Registry) (miopen.Instance, error) {
	st, err := in.plan(reg)
	if err != nil {
		return miopen.Instance{}, err
	}
	return st.inst, nil
}

// Static returns the statically selected instance and the instruction's
// problem, interned in reg, which must be the compile registry. Only valid
// for KindPrimitive.
func (in *Instruction) Static(reg *miopen.Registry) (miopen.Instance, *miopen.Interned, error) {
	st, err := in.plan(reg)
	if err != nil {
		return miopen.Instance{}, nil, err
	}
	return st.inst, st.prob, nil
}

// plan returns the instruction's static plan, refusing any registry but
// the one it was compiled against.
func (in *Instruction) plan(reg *miopen.Registry) (*staticPlan, error) {
	switch {
	case in.static == nil:
		return nil, fmt.Errorf("graphx: instruction %d (%s) has no solution", in.Index, in.Kind)
	case in.static.prob.Registry() != reg:
		return nil, fmt.Errorf("graphx: instruction %d (%s) was compiled against another registry", in.Index, in.Name)
	}
	return in.static, nil
}

// InternedGemm returns the instruction's GEMM problem as MaterializeModel
// interned it in reg, refusing any other registry. Only valid for KindGemm.
func (in *Instruction) InternedGemm(reg *blas.Registry) (*blas.Interned, error) {
	switch {
	case in.gemm == nil:
		return nil, fmt.Errorf("graphx: instruction %d (%s) has no materialized GEMM", in.Index, in.Kind)
	case in.gemm.Registry() != reg:
		return nil, fmt.Errorf("graphx: instruction %d (%s) was materialized against another BLAS registry", in.Index, in.Name)
	}
	return in.gemm, nil
}

// CompiledModel is the lowered, solution-annotated model the serving
// framework stores in its registry and deserializes on every cold start.
type CompiledModel struct {
	Name       string
	Batch      int
	DType      tensor.DType
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
