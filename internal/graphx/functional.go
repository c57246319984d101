package graphx

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"pask/internal/kernels"
	"pask/internal/miopen"
	"pask/internal/onnx"
	"pask/internal/tensor"
)

// SolutionPicker chooses which library solution implements a primitive
// problem during functional execution. The default picker mirrors the
// compiler (fastest applicable); a reuse-style picker substitutes generic
// solutions — functional equivalence between the two is the correctness
// premise of PASK's kernel reuse.
type SolutionPicker func(p *miopen.Problem) (miopen.Instance, error)

// BestPicker picks the statically optimal solution, like the compiler.
func BestPicker(reg *miopen.Registry) SolutionPicker {
	return func(p *miopen.Problem) (miopen.Instance, error) {
		r, err := reg.FindBest(p)
		if err != nil {
			return miopen.Instance{}, err
		}
		return r.Inst, nil
	}
}

// GenericPicker picks the most generic applicable solution — the kind of
// substitute PASK's cache returns when the specialist is absent.
func GenericPicker(reg *miopen.Registry) SolutionPicker {
	return func(p *miopen.Problem) (miopen.Instance, error) {
		ranked := reg.Find(p)
		if len(ranked) == 0 {
			return miopen.Instance{}, fmt.Errorf("graphx: no applicable solution for %s", p.Key())
		}
		best := ranked[0]
		for _, r := range ranked[1:] {
			if r.Inst.Sol.Specificity() < best.Inst.Sol.Specificity() {
				best = r
			}
		}
		return best.Inst, nil
	}
}

// FunctionalRun executes an onnx graph numerically on host tensors: weights
// are generated deterministically from seed, primitives run through the
// picked library solutions' reference implementations, and the graph output
// tensor is returned. Intended for small inputs (tests, examples).
func FunctionalRun(g *onnx.Graph, pick SolutionPicker, input *tensor.Tensor, seed int64) (*tensor.Tensor, error) {
	shapes, err := g.InferShapes()
	if err != nil {
		return nil, err
	}
	if input.Shape != g.InputShape {
		return nil, fmt.Errorf("graphx: input shape %v, model wants %v", input.Shape, g.InputShape)
	}
	vals := map[string]*tensor.Tensor{g.Input: input}
	for _, init := range g.Inits {
		vals[init.Name] = paramTensor(init.Name, init.Shape, seed)
	}
	f := &funcExec{g: g, pick: pick, shapes: shapes, vals: vals}
	for i := range g.Nodes {
		if err := f.eval(&g.Nodes[i]); err != nil {
			return nil, fmt.Errorf("graphx: functional node %q: %w", g.Nodes[i].Name, err)
		}
	}
	out, ok := vals[g.Output]
	if !ok {
		return nil, fmt.Errorf("graphx: output %q never produced", g.Output)
	}
	return out, nil
}

// paramTensor generates a deterministic small-valued parameter tensor.
func paramTensor(name string, s tensor.Shape, seed int64) *tensor.Tensor {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	t := tensor.New(s, tensor.NCHW)
	scale := float32(1.0 / math.Sqrt(float64(s.C*s.H*s.W)+1))
	t.Fill(func(int) float32 { return (rng.Float32()*2 - 1) * scale })
	return t
}

type funcExec struct {
	g      *onnx.Graph
	pick   SolutionPicker
	shapes map[string]tensor.Shape
	vals   map[string]*tensor.Tensor
}

func (f *funcExec) in(n *onnx.Node, i int) (*tensor.Tensor, error) {
	t, ok := f.vals[n.Inputs[i]]
	if !ok {
		return nil, fmt.Errorf("input %q not computed", n.Inputs[i])
	}
	return t, nil
}

func (f *funcExec) runPrimitive(n *onnx.Node, prob miopen.Problem, x, w, bias *tensor.Tensor) error {
	inst, err := f.pick(&prob)
	if err != nil {
		return err
	}
	out := tensor.New(prob.OutShape(), tensor.NCHW)
	if err := inst.Sol.RunFunctional(&prob, x, w, bias, out); err != nil {
		return err
	}
	f.vals[n.Output] = out
	return nil
}

func (f *funcExec) eval(n *onnx.Node) error {
	switch n.Op {
	case onnx.OpConv, onnx.OpMaxPool, onnx.OpAvgPool, onnx.OpGlobalPool,
		onnx.OpRelu, onnx.OpLeakyRelu, onnx.OpSigmoid, onnx.OpTanh:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		var w, bias *tensor.Tensor
		var ws tensor.Shape
		if n.Op == onnx.OpConv {
			if w, err = f.in(n, 1); err != nil {
				return err
			}
			ws = w.Shape
			if len(n.Inputs) > 2 {
				bias = f.vals[n.Inputs[2]]
			}
		}
		prob := primitiveProblem(n, x.Shape, ws, f.g.DType)(tensor.NCHW)
		if err := f.runPrimitive(n, prob, x, w, bias); err != nil {
			return err
		}
		if n.Op == onnx.OpConv && n.AttrInt("fused_relu", 0) == 1 {
			out := f.vals[n.Output]
			for i, v := range out.Data {
				if v < 0 {
					out.Data[i] = 0
				}
			}
		}
		return nil

	case onnx.OpGelu:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		out := tensor.New(x.Shape, tensor.NCHW)
		if err := kernels.Activation(x, out, kernels.GELU, 0); err != nil {
			return err
		}
		f.vals[n.Output] = out
		return nil

	case onnx.OpBatchNorm, onnx.OpIdentity:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		// Inference-time BN with unit scale and zero shift (the optimizer
		// folds real statistics into the conv).
		f.vals[n.Output] = x
		return nil

	case onnx.OpFlatten:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		out := tensor.New(f.shapes[n.Output], tensor.NCHW)
		copy(out.Data, x.Data) // NCHW flatten is a pure view change
		f.vals[n.Output] = out
		return nil

	case onnx.OpTokens:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		s := x.Shape
		out := tensor.New(f.shapes[n.Output], tensor.NCHW)
		for b := 0; b < s.N; b++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						out.Set(b, 0, h*s.W+w, c, x.At(b, c, h, w))
					}
				}
			}
		}
		f.vals[n.Output] = out
		return nil

	case onnx.OpPatchMerge:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		s := x.Shape
		out := tensor.New(f.shapes[n.Output], tensor.NCHW)
		for b := 0; b < s.N; b++ {
			for tok := 0; tok < s.H/4; tok++ {
				for g := 0; g < 4; g++ {
					for d := 0; d < s.W; d++ {
						out.Set(b, 0, tok, g*s.W+d, x.At(b, 0, tok*4+g, d))
					}
				}
			}
		}
		f.vals[n.Output] = out
		return nil

	case onnx.OpGemm, onnx.OpMatMul:
		a, err := f.in(n, 0)
		if err != nil {
			return err
		}
		b, err := f.in(n, 1)
		if err != nil {
			return err
		}
		transB := n.AttrInt("trans_b", 0) == 1
		as, bs := a.Shape, b.Shape
		m, k := as.H, as.W
		nDim := bs.W
		if transB {
			nDim = bs.H
		}
		out := tensor.New(f.shapes[n.Output], tensor.NCHW)
		batch := as.N * as.C
		aPer, bPer, cPer := m*k, bs.H*bs.W, m*nDim
		for bi := 0; bi < batch; bi++ {
			aSlice := a.Data[bi*aPer : (bi+1)*aPer]
			bOff := 0
			if bs.N*bs.C == batch {
				bOff = bi * bPer
			}
			bSlice := b.Data[bOff : bOff+bPer]
			cSlice := out.Data[bi*cPer : (bi+1)*cPer]
			if err := kernels.Gemm(false, transB, m, nDim, k, 1, aSlice, bSlice, 0, cSlice); err != nil {
				return err
			}
		}
		f.vals[n.Output] = out
		return nil

	case onnx.OpSoftmax:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		out := x.Clone()
		rows := x.Shape.N * x.Shape.C * x.Shape.H
		if err := kernels.Softmax(out.Data, rows, x.Shape.W); err != nil {
			return err
		}
		f.vals[n.Output] = out
		return nil

	case onnx.OpLayerNorm:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		out := x.Clone()
		rows := x.Shape.N * x.Shape.C * x.Shape.H
		w := x.Shape.W
		for r := 0; r < rows; r++ {
			row := out.Data[r*w : (r+1)*w]
			var mean float64
			for _, v := range row {
				mean += float64(v)
			}
			mean /= float64(w)
			var variance float64
			for _, v := range row {
				d := float64(v) - mean
				variance += d * d
			}
			variance /= float64(w)
			inv := 1 / math.Sqrt(variance+1e-5)
			for i, v := range row {
				row[i] = float32((float64(v) - mean) * inv)
			}
		}
		f.vals[n.Output] = out
		return nil

	case onnx.OpAdd, onnx.OpMul:
		a, err := f.in(n, 0)
		if err != nil {
			return err
		}
		b, err := f.in(n, 1)
		if err != nil {
			return err
		}
		out := tensor.New(a.Shape, tensor.NCHW)
		s := a.Shape
		for n4 := 0; n4 < s.N; n4++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						av := a.At(n4, c, h, w)
						var bv float32
						if b.Shape == a.Shape {
							bv = b.At(n4, c, h, w)
						} else {
							// Broadcast (N|1, C, 1, 1) gates and biases.
							bn := n4
							if b.Shape.N == 1 {
								bn = 0
							}
							bv = b.At(bn, c, 0, 0)
						}
						if n.Op == onnx.OpAdd {
							out.Set(n4, c, h, w, av+bv)
						} else {
							out.Set(n4, c, h, w, av*bv)
						}
					}
				}
			}
		}
		f.vals[n.Output] = out
		return nil

	case onnx.OpConcat:
		outShape := f.shapes[n.Output]
		out := tensor.New(outShape, tensor.NCHW)
		first, err := f.in(n, 0)
		if err != nil {
			return err
		}
		if first.Shape.C == 1 && first.Shape.H == 1 {
			// Flat concat along W.
			off := 0
			for i := range n.Inputs {
				t, err := f.in(n, i)
				if err != nil {
					return err
				}
				copy(out.Data[off:], t.Data)
				off += len(t.Data)
			}
		} else {
			cOff := 0
			for i := range n.Inputs {
				t, err := f.in(n, i)
				if err != nil {
					return err
				}
				s := t.Shape
				for n4 := 0; n4 < s.N; n4++ {
					for c := 0; c < s.C; c++ {
						for h := 0; h < s.H; h++ {
							for w := 0; w < s.W; w++ {
								out.Set(n4, cOff+c, h, w, t.At(n4, c, h, w))
							}
						}
					}
				}
				cOff += s.C
			}
		}
		f.vals[n.Output] = out
		return nil

	case onnx.OpResize:
		x, err := f.in(n, 0)
		if err != nil {
			return err
		}
		scale := n.AttrInt("scale", 2)
		out := tensor.New(f.shapes[n.Output], tensor.NCHW)
		s := out.Shape
		for n4 := 0; n4 < s.N; n4++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						out.Set(n4, c, h, w, x.At(n4, c, h/scale, w/scale))
					}
				}
			}
		}
		f.vals[n.Output] = out
		return nil
	}
	return fmt.Errorf("unsupported op %q", n.Op)
}
