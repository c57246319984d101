package graphx

import (
	"fmt"
	"slices"

	"pask/internal/blas"
	"pask/internal/codeobj"
	"pask/internal/kernels"
	"pask/internal/miopen"
	"pask/internal/onnx"
	"pask/internal/tensor"
)

// BuiltinObjectPath is the engine's own kernel object (elementwise, shuffle
// and normalization kernels), loaded once per process.
const BuiltinObjectPath = "graphx_builtin.pko"

// builtinOps lists the symbols bundled in the builtin object.
var builtinOps = []string{
	"add", "mul", "concat", "softmax", "layernorm", "gelu",
	"resize", "tokens", "patchmerge", "batchnorm",
}

// SelectMode chooses the solution-selection policy during lowering.
type SelectMode int

const (
	// SelectDefault picks the fastest applicable solution per layer — the
	// vendor-library policy that mixes layouts and maximizes specialization
	// (and therefore loads).
	SelectDefault SelectMode = iota
	// SelectUniformLayout restricts selection to solutions that run in
	// NCHW throughout, eliminating inter-layer transforms — the NNV12
	// selection policy.
	SelectUniformLayout
)

// CompileOptions configures lowering.
type CompileOptions struct {
	Mode SelectMode
	// FuseConvActivation merges exclusive Conv+ReLU pairs (design ablation:
	// fewer activation instructions and code objects).
	FuseConvActivation bool
}

// Compile lowers an onnx graph into a compiled model: graph passes, then
// per-layer solution selection against the performance database with layout
// planning (paper Fig 3 "offline preparation"). The input graph is mutated
// by the optimization passes.
func Compile(g *onnx.Graph, db *miopen.PerfDB, opts CompileOptions) (*CompiledModel, error) {
	Optimize(g)
	if opts.FuseConvActivation {
		FuseConvActivation(g)
	}
	shapes, err := g.InferShapes()
	if err != nil {
		return nil, err
	}
	c := &compiler{
		g: g, db: db, opts: opts, shapes: shapes,
		layouts: map[string]tensor.Layout{g.Input: tensor.NCHW},
		m: &CompiledModel{
			Name:       g.Name,
			Batch:      g.InputShape.N,
			DType:      g.DType,
			ParamBytes: g.ParamBytes(),
		},
	}
	for _, init := range g.Inits {
		c.layouts[init.Name] = tensor.NCHW
	}
	for i := range g.Nodes {
		if err := c.lower(&g.Nodes[i]); err != nil {
			return nil, err
		}
	}
	return c.m, nil
}

type compiler struct {
	g       *onnx.Graph
	db      *miopen.PerfDB
	opts    CompileOptions
	shapes  map[string]tensor.Shape
	layouts map[string]tensor.Layout
	m       *CompiledModel
}

// emit appends in to the model, giving it its index and, for a builtin or
// transform, its launch site.
func (c *compiler) emit(in Instruction) *Instruction {
	in.Index = len(c.m.Instrs)
	if in.Kind == KindBuiltin || in.Kind == KindTransform {
		in.site = c.db.Registry().NewSite()
	}
	c.m.Instrs = append(c.m.Instrs, in)
	return &c.m.Instrs[in.Index]
}

// layoutOf returns the planned layout of a tensor (NCHW for parameters and
// anything untracked).
func (c *compiler) layoutOf(t string) tensor.Layout {
	if l, ok := c.layouts[t]; ok {
		return l
	}
	return tensor.NCHW
}

// transformPath names the JIT-compiled layout-interchange object — one
// distinct code object per (direction, tensor geometry, dtype), mirroring
// how the engine emits a dedicated interchange kernel for every shape it
// plans (the loads NNV12's uniform-layout selection eliminates).
func transformPath(from, to tensor.Layout, s tensor.Shape, dt tensor.DType) string {
	return fmt.Sprintf("xform_%s2%s_n%dc%dh%dw%d_%s.pko", from, to, s.N, s.C, s.H, s.W, dt)
}

// ensureLayout inserts a layout-interchange instruction when tensor t is not
// yet available in the wanted layout.
func (c *compiler) ensureLayout(t string, want tensor.Layout) {
	c.ensureLayoutFor(t, want, false)
}

// ensureLayoutFor is ensureLayout with control over whether the emitted
// transform feeds the immediately following primitive instruction.
func (c *compiler) ensureLayoutFor(t string, want tensor.Layout, forNext bool) {
	cur := c.layoutOf(t)
	if cur == want {
		return
	}
	if c.opts.Mode == SelectUniformLayout {
		// Uniform selection must never need a transform; reaching here is a
		// planner bug, so fail loudly in tests via panic-free accounting.
		panic(fmt.Sprintf("graphx: transform required for %q under uniform layout", t))
	}
	s := c.shapes[t]
	if s.H == 1 && s.W == 1 {
		// A 1x1-spatial tensor has identical NCHW and NHWC layouts: the
		// interchange is a no-op and no kernel is planned.
		c.layouts[t] = want
		return
	}
	c.emit(Instruction{
		Name:         fmt.Sprintf("xform(%s:%s->%s)", t, cur, want),
		Kind:         KindTransform,
		XformPath:    transformPath(cur, want, s, c.m.DType),
		XformSrc:     cur,
		XformDst:     want,
		XformForNext: forNext,
		Work:         kernels.TransformWorkload(s, c.m.DType),
		Eff:          0.35,
	})
	c.layouts[t] = want
}

// selectSolution picks the solution instance for a primitive problem under
// the compile mode.
func (c *compiler) selectSolution(p *miopen.Problem) (miopen.Ranked, error) {
	ranked := c.db.Find(p)
	if len(ranked) == 0 {
		return miopen.Ranked{}, fmt.Errorf("graphx: no applicable solution for %s", p.Key())
	}
	if c.opts.Mode == SelectUniformLayout {
		for _, r := range ranked {
			pref, agnostic := r.Inst.Sol.PreferredLayout(p)
			if agnostic || pref == tensor.NCHW {
				return r, nil
			}
		}
		return miopen.Ranked{}, fmt.Errorf("graphx: no %v-layout solution for %s", tensor.NCHW, p.Key())
	}
	return ranked[0], nil
}

// lowerPrimitive emits a primitive-library instruction, planning layouts.
func (c *compiler) lowerPrimitive(n *onnx.Node, input string, build func(layout tensor.Layout) miopen.Problem) error {
	cur := c.layoutOf(input)
	prob := build(cur)
	r, err := c.selectSolution(&prob)
	if err != nil {
		return fmt.Errorf("node %q: %w", n.Name, err)
	}
	pref, agnostic := r.Inst.Sol.PreferredLayout(&prob)
	runLayout := cur
	if c.opts.Mode == SelectUniformLayout {
		runLayout = tensor.NCHW
	} else if !agnostic && pref != cur {
		c.ensureLayoutFor(input, pref, true)
		runLayout = pref
	}
	if runLayout != prob.Layout {
		prob = build(runLayout)
	}
	// Intern the problem and resolve the static plan now, so the set-up's
	// processes find both ready.
	ip := c.db.Registry().Intern(&prob)
	c.emit(Instruction{
		Name:       n.Name,
		Kind:       KindPrimitive,
		Problem:    prob,
		SolutionID: r.Inst.Sol.ID(),
		Binding:    r.Inst.Binding(),
		static:     &staticPlan{prob: ip, inst: r.Inst, calls: r.Inst.Sol.Calls(ip)},
	})
	c.layouts[n.Output] = runLayout
	return nil
}

// lowerBuiltin emits an engine-kernel instruction with a memory-bound
// workload proportional to the touched bytes.
func (c *compiler) lowerBuiltin(n *onnx.Node, op string, trafficScale float64) {
	// Binary ops need operands in one layout.
	target := c.layoutOf(n.Inputs[0])
	for _, in := range n.Inputs[1:] {
		if _, isParam := c.g.InitShape(in); !isParam {
			c.ensureLayout(in, target)
		}
	}
	out := c.shapes[n.Output]
	w := kernels.TransformWorkload(out, c.m.DType).Scale(trafficScale)
	c.emit(Instruction{
		Name:    n.Name,
		Kind:    KindBuiltin,
		Builtin: op,
		Work:    w,
		Eff:     0.35,
	})
	c.layouts[n.Output] = target
}

// actKinds maps the activation ops to their primitive-library kind.
var actKinds = map[onnx.Op]kernels.ActKind{
	onnx.OpRelu: kernels.ReLU, onnx.OpLeakyRelu: kernels.LeakyReLU,
	onnx.OpSigmoid: kernels.Sigmoid, onnx.OpTanh: kernels.Tanh,
}

// primitiveProblem reads a conv, pool or activation node's attributes and
// returns the builder of its primitive-library problem in a given layout.
// x is the node's input shape and w, for a conv, its weight shape. Compile
// and the functional executor both build their problems here, so the two
// cannot read a node differently. It returns nil for any other op.
func primitiveProblem(n *onnx.Node, x, w tensor.Shape, dt tensor.DType) func(tensor.Layout) miopen.Problem {
	switch n.Op {
	case onnx.OpConv:
		groups := n.AttrInt("groups", 1)
		conv := kernels.Conv2DParams{
			StrideH: n.AttrInt("stride_h", n.AttrInt("stride", 1)),
			StrideW: n.AttrInt("stride_w", n.AttrInt("stride", 1)),
			PadH:    n.AttrInt("pad_h", n.AttrInt("pad", 0)),
			PadW:    n.AttrInt("pad_w", n.AttrInt("pad", 0)),
			DilH:    n.AttrInt("dil_h", n.AttrInt("dil", 1)),
			DilW:    n.AttrInt("dil_w", n.AttrInt("dil", 1)),
		}
		return func(l tensor.Layout) miopen.Problem {
			return miopen.NewConvProblem(x, w.N, w.H, w.W, conv, groups, dt, l)
		}

	case onnx.OpMaxPool, onnx.OpAvgPool, onnx.OpGlobalPool:
		var pool kernels.Pool2DParams
		mode := kernels.MaxPool
		if n.Op == onnx.OpGlobalPool {
			pool = kernels.Pool2DParams{WinH: x.H, WinW: x.W, StrideH: x.H, StrideW: x.W}
			mode = kernels.AvgPool
		} else {
			win := n.AttrInt("win", 2)
			pool = kernels.Pool2DParams{
				WinH: n.AttrInt("win_h", win), WinW: n.AttrInt("win_w", win),
				StrideH: n.AttrInt("stride_h", n.AttrInt("stride", win)),
				StrideW: n.AttrInt("stride_w", n.AttrInt("stride", win)),
				PadH:    n.AttrInt("pad_h", n.AttrInt("pad", 0)),
				PadW:    n.AttrInt("pad_w", n.AttrInt("pad", 0)),
			}
			if n.Op == onnx.OpAvgPool {
				mode = kernels.AvgPool
			}
		}
		return func(l tensor.Layout) miopen.Problem {
			return miopen.NewPoolProblem(x, pool, mode, dt, l)
		}

	case onnx.OpRelu, onnx.OpLeakyRelu, onnx.OpSigmoid, onnx.OpTanh:
		kind := actKinds[n.Op]
		alpha := float32(0)
		if kind == kernels.LeakyReLU {
			alpha = 0.01
		}
		return func(l tensor.Layout) miopen.Problem {
			return miopen.NewActProblem(x, kind, alpha, dt, l)
		}
	}
	return nil
}

func (c *compiler) lower(n *onnx.Node) error {
	switch n.Op {
	case onnx.OpConv, onnx.OpMaxPool, onnx.OpAvgPool, onnx.OpGlobalPool,
		onnx.OpRelu, onnx.OpLeakyRelu, onnx.OpSigmoid, onnx.OpTanh:
		x := n.Inputs[0]
		var ws tensor.Shape
		if n.Op == onnx.OpConv {
			ws = c.shapes[n.Inputs[1]]
		}
		return c.lowerPrimitive(n, x, primitiveProblem(n, c.shapes[x], ws, c.m.DType))

	case onnx.OpGemm:
		// Fully-connected layers lower to 1x1 convolutions over a 1x1
		// spatial map, as serving frameworks do — keeping dense classifier
		// heads inside the primitive library (and PASK's reach), unlike the
		// transformer MatMuls that go to BLAS.
		a := c.shapes[n.Inputs[0]]
		w := c.shapes[n.Inputs[1]]
		fcIn := tensor.Shape{N: a.N * a.C * a.H, C: a.W, H: 1, W: 1}
		return c.lowerPrimitive(n, n.Inputs[0], func(l tensor.Layout) miopen.Problem {
			return miopen.NewConvProblem(fcIn, w.W, 1, 1, kernels.Default1x1(), 1, c.m.DType, l)
		})

	case onnx.OpMatMul:
		a := c.shapes[n.Inputs[0]]
		b := c.shapes[n.Inputs[1]]
		transB := n.AttrInt("trans_b", 0) == 1
		nDim := b.W
		if transB {
			nDim = b.H
		}
		c.emit(Instruction{
			Name: n.Name,
			Kind: KindGemm,
			Gemm: blas.Problem{
				M: a.H, N: nDim, K: a.W, Batch: a.N * a.C, TransB: transB, DType: c.m.DType,
			},
		})
		c.layouts[n.Output] = tensor.NCHW
		return nil

	case onnx.OpAdd:
		c.lowerBuiltin(n, "add", 1.5)
	case onnx.OpMul:
		c.lowerBuiltin(n, "mul", 1.5)
	case onnx.OpConcat:
		c.lowerBuiltin(n, "concat", 1)
	case onnx.OpSoftmax:
		c.lowerBuiltin(n, "softmax", 2)
	case onnx.OpLayerNorm:
		c.lowerBuiltin(n, "layernorm", 2)
	case onnx.OpGelu:
		c.lowerBuiltin(n, "gelu", 1)
	case onnx.OpResize:
		c.lowerBuiltin(n, "resize", 1)
	case onnx.OpTokens:
		c.lowerBuiltin(n, "tokens", 1)
		c.layouts[n.Output] = tensor.NCHW
	case onnx.OpPatchMerge:
		c.lowerBuiltin(n, "patchmerge", 1)
		c.layouts[n.Output] = tensor.NCHW
	case onnx.OpBatchNorm:
		// Unfolded BN (non-conv producer) runs as an engine kernel.
		c.lowerBuiltin(n, "batchnorm", 2)
	case onnx.OpFlatten, onnx.OpIdentity:
		// Pure view changes: no kernel, inherit layout.
		c.layouts[n.Output] = c.layoutOf(n.Inputs[0])
	default:
		return fmt.Errorf("graphx: cannot lower op %q (node %q)", n.Op, n.Name)
	}
	return nil
}

// MaterializeModel requests every code object the compiled model's static
// plan references (selected primitive solutions, layout transforms, the
// engine builtin object, the BLAS kernels of its GEMMs), plus the library's
// resident generic kernels. reg must be the registry the model was
// compiled against. It binds each GEMM instruction to breg, the set-up's
// BLAS registry, which interns and ranks the problem; a model is
// materialized for one set-up only. The batch's Put builds the objects.
func MaterializeModel(b *codeobj.Batch, reg *miopen.Registry, breg *blas.Registry, m *CompiledModel) error {
	arch := reg.Ctx().Dev.Arch
	miopen.MaterializeObjects(b, arch, reg.Residents())
	for i := range m.Instrs {
		in := &m.Instrs[i]
		switch in.Kind {
		case KindPrimitive:
			inst, err := in.Instance(reg)
			if err != nil {
				return err
			}
			miopen.MaterializeObjects(b, arch, []miopen.Instance{inst})
		case KindTransform:
			b.Add(in.XformPath, arch, []codeobj.KernelSpec{{
				Name:     "xform_main",
				Pattern:  "Transform",
				CodeSize: 220 << 10,
				Meta:     map[string]string{"path": in.XformPath},
			}})
		case KindBuiltin:
			if !b.Need(BuiltinObjectPath) {
				continue
			}
			var specs []codeobj.KernelSpec
			for _, op := range builtinOps {
				specs = append(specs, codeobj.KernelSpec{
					Name: "builtin_" + op, Pattern: "Builtin", CodeSize: 44 << 10,
				})
			}
			b.Add(BuiltinObjectPath, arch, specs)
		}
	}
	var gemms []*blas.Interned
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.Kind != KindGemm {
			continue
		}
		if in.gemm != nil && in.gemm.Registry() != breg {
			return fmt.Errorf("graphx: %s was materialized against another BLAS registry", m.Name)
		}
		in.gemm = breg.Intern(&in.Gemm)
		if !slices.Contains(gemms, in.gemm) {
			gemms = append(gemms, in.gemm)
		}
	}
	blas.Materialize(b, gemms)
	return nil
}
