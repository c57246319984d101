// Package onnx implements the exchange-format model graph the serving
// framework receives (paper Fig 3): a canonical-operator DAG with shape
// inference, a builder API used by the model zoo, and JSON import/export.
//
// Activation tensors are tracked as 4-D shapes. Convolutional nets use the
// natural (N, C, H, W) interpretation; transformer blocks view the same
// container as (batch, heads, rows, cols) with the matrix in (H, W).
//
// Paper anchor: the exchange-format model graph of Fig 3.
package onnx

import (
	"encoding/json"
	"fmt"

	"pask/internal/tensor"
)

// Op enumerates the canonical operator set.
type Op string

const (
	OpConv       Op = "Conv"
	OpBatchNorm  Op = "BatchNormalization"
	OpRelu       Op = "Relu"
	OpLeakyRelu  Op = "LeakyRelu"
	OpSigmoid    Op = "Sigmoid"
	OpTanh       Op = "Tanh"
	OpGelu       Op = "Gelu"
	OpMaxPool    Op = "MaxPool"
	OpAvgPool    Op = "AveragePool"
	OpGlobalPool Op = "GlobalAveragePool"
	OpGemm       Op = "Gemm"
	OpMatMul     Op = "MatMul"
	OpAdd        Op = "Add"
	OpMul        Op = "Mul"
	OpConcat     Op = "Concat"
	OpFlatten    Op = "Flatten"
	OpSoftmax    Op = "Softmax"
	OpLayerNorm  Op = "LayerNormalization"
	OpResize     Op = "Resize"
	OpIdentity   Op = "Identity"
	// OpTokens reshapes a feature map (N,C,H,W) into a token matrix
	// (N,1,H*W,C) after patch embedding.
	OpTokens Op = "Tokens"
	// OpPatchMerge merges 2x2 token neighborhoods: (N,1,S,C) -> (N,1,S/4,4C).
	OpPatchMerge Op = "PatchMerge"
)

// Node is one operator instance. Attribute maps follow the ONNX convention
// of free-form named attributes; the Attr* helpers fetch them with defaults.
type Node struct {
	Name   string         `json:"name"`
	Op     Op             `json:"op"`
	Inputs []string       `json:"inputs"`
	Output string         `json:"output"`
	Ints   map[string]int `json:"ints,omitempty"`
}

// AttrInt returns the named integer attribute or def when absent.
func (n *Node) AttrInt(key string, def int) int {
	if v, ok := n.Ints[key]; ok {
		return v
	}
	return def
}

// Init is a weight/parameter tensor declaration (shape only; values are
// generated deterministically when running functionally).
type Init struct {
	Name  string       `json:"name"`
	Shape tensor.Shape `json:"shape"`
}

// Graph is a model: one input, a node list in topological order, and the
// parameter table.
type Graph struct {
	Name       string       `json:"name"`
	Input      string       `json:"input"`
	InputShape tensor.Shape `json:"input_shape"`
	DType      tensor.DType `json:"dtype"`
	Nodes      []Node       `json:"nodes"`
	Output     string       `json:"output"`
	Inits      []Init       `json:"inits"`
}

// InitShape returns the declared shape of a parameter tensor.
func (g *Graph) InitShape(name string) (tensor.Shape, bool) {
	for _, in := range g.Inits {
		if in.Name == name {
			return in.Shape, true
		}
	}
	return tensor.Shape{}, false
}

// ParamBytes returns the total parameter size of the model for its dtype —
// the payload the executor copies host-to-device during cold start.
func (g *Graph) ParamBytes() int64 {
	var n int64
	for _, in := range g.Inits {
		n += in.Shape.Bytes(g.DType)
	}
	return n
}

// NumOps returns the node count.
func (g *Graph) NumOps() int { return len(g.Nodes) }

// ToJSON serializes the graph in its interchange form; encoding/json reads
// it back, and InferShapes validates what it read.
func (g *Graph) ToJSON() ([]byte, error) { return json.MarshalIndent(g, "", "  ") }

// InferShapes computes the shape of every tensor in the graph, validating
// operator legality along the way. The returned map covers the input, all
// node outputs and all initializers.
func (g *Graph) InferShapes() (map[string]tensor.Shape, error) {
	shapes := map[string]tensor.Shape{g.Input: g.InputShape}
	if !g.InputShape.Valid() {
		return nil, fmt.Errorf("onnx: %s: invalid input shape %v", g.Name, g.InputShape)
	}
	for _, in := range g.Inits {
		if !in.Shape.Valid() {
			return nil, fmt.Errorf("onnx: %s: invalid init shape %v for %q", g.Name, in.Shape, in.Name)
		}
		shapes[in.Name] = in.Shape
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		out, err := inferNode(n, shapes)
		if err != nil {
			return nil, fmt.Errorf("onnx: %s: node %q: %w", g.Name, n.Name, err)
		}
		if n.Output == "" {
			return nil, fmt.Errorf("onnx: %s: node %q has no output", g.Name, n.Name)
		}
		if _, dup := shapes[n.Output]; dup {
			return nil, fmt.Errorf("onnx: %s: tensor %q written twice", g.Name, n.Output)
		}
		shapes[n.Output] = out
	}
	if _, ok := shapes[g.Output]; !ok {
		return nil, fmt.Errorf("onnx: %s: output tensor %q never produced", g.Name, g.Output)
	}
	return shapes, nil
}

func inputShapes(n *Node, shapes map[string]tensor.Shape, want int) ([]tensor.Shape, error) {
	if len(n.Inputs) < want {
		return nil, fmt.Errorf("%s needs %d inputs, has %d", n.Op, want, len(n.Inputs))
	}
	out := make([]tensor.Shape, len(n.Inputs))
	for i, name := range n.Inputs {
		s, ok := shapes[name]
		if !ok {
			return nil, fmt.Errorf("input tensor %q undefined", name)
		}
		out[i] = s
	}
	return out, nil
}

func inferNode(n *Node, shapes map[string]tensor.Shape) (tensor.Shape, error) {
	switch n.Op {
	case OpConv:
		in, err := inputShapes(n, shapes, 2)
		if err != nil {
			return tensor.Shape{}, err
		}
		x, w := in[0], in[1]
		groups := n.AttrInt("groups", 1)
		if groups < 1 || x.C%groups != 0 {
			return tensor.Shape{}, fmt.Errorf("bad groups %d for C=%d", groups, x.C)
		}
		if w.C != x.C/groups {
			return tensor.Shape{}, fmt.Errorf("weight C %d != input C/groups %d", w.C, x.C/groups)
		}
		sh := n.AttrInt("stride_h", n.AttrInt("stride", 1))
		sw := n.AttrInt("stride_w", n.AttrInt("stride", 1))
		ph := n.AttrInt("pad_h", n.AttrInt("pad", 0))
		pw := n.AttrInt("pad_w", n.AttrInt("pad", 0))
		dh := n.AttrInt("dil_h", n.AttrInt("dil", 1))
		dw := n.AttrInt("dil_w", n.AttrInt("dil", 1))
		nh := x.H + 2*ph - ((w.H-1)*dh + 1)
		nw := x.W + 2*pw - ((w.W-1)*dw + 1)
		if nh < 0 || nw < 0 {
			return tensor.Shape{}, fmt.Errorf("filter exceeds padded input (%dx%d)", x.H, x.W)
		}
		oh := nh/sh + 1
		ow := nw/sw + 1
		return tensor.Shape{N: x.N, C: w.N, H: oh, W: ow}, nil

	case OpBatchNorm:
		in, err := inputShapes(n, shapes, 1)
		if err != nil {
			return tensor.Shape{}, err
		}
		return in[0], nil

	case OpRelu, OpLeakyRelu, OpSigmoid, OpTanh, OpGelu, OpSoftmax, OpLayerNorm, OpIdentity:
		in, err := inputShapes(n, shapes, 1)
		if err != nil {
			return tensor.Shape{}, err
		}
		return in[0], nil

	case OpMaxPool, OpAvgPool:
		in, err := inputShapes(n, shapes, 1)
		if err != nil {
			return tensor.Shape{}, err
		}
		x := in[0]
		win := n.AttrInt("win", 2)
		winH := n.AttrInt("win_h", win)
		winW := n.AttrInt("win_w", win)
		sh := n.AttrInt("stride_h", n.AttrInt("stride", winH))
		sw := n.AttrInt("stride_w", n.AttrInt("stride", winW))
		ph := n.AttrInt("pad_h", n.AttrInt("pad", 0))
		pw := n.AttrInt("pad_w", n.AttrInt("pad", 0))
		nh := x.H + 2*ph - winH
		nw := x.W + 2*pw - winW
		if nh < 0 || nw < 0 {
			return tensor.Shape{}, fmt.Errorf("pool window exceeds padded input (%dx%d)", x.H, x.W)
		}
		oh := nh/sh + 1
		ow := nw/sw + 1
		return tensor.Shape{N: x.N, C: x.C, H: oh, W: ow}, nil

	case OpGlobalPool:
		in, err := inputShapes(n, shapes, 1)
		if err != nil {
			return tensor.Shape{}, err
		}
		x := in[0]
		return tensor.Shape{N: x.N, C: x.C, H: 1, W: 1}, nil

	case OpFlatten:
		in, err := inputShapes(n, shapes, 1)
		if err != nil {
			return tensor.Shape{}, err
		}
		x := in[0]
		return tensor.Shape{N: x.N, C: 1, H: 1, W: x.C * x.H * x.W}, nil

	case OpGemm:
		// A(N,1,1,K) x W(K,M): the fully-connected layer form.
		in, err := inputShapes(n, shapes, 2)
		if err != nil {
			return tensor.Shape{}, err
		}
		x, w := in[0], in[1]
		if x.W != w.H {
			return tensor.Shape{}, fmt.Errorf("gemm inner dims %d vs %d", x.W, w.H)
		}
		return tensor.Shape{N: x.N, C: x.C, H: x.H, W: w.W}, nil

	case OpMatMul:
		// A(B,h,m,k) x B(...,k,n), with optional trans_b. The second operand
		// is either a parameter (1,1,k,n) or another activation.
		in, err := inputShapes(n, shapes, 2)
		if err != nil {
			return tensor.Shape{}, err
		}
		a, b := in[0], in[1]
		bk, bn := b.H, b.W
		if n.AttrInt("trans_b", 0) == 1 {
			bk, bn = b.W, b.H
		}
		if a.W != bk {
			return tensor.Shape{}, fmt.Errorf("matmul inner dims %d vs %d", a.W, bk)
		}
		if b.N != 1 && b.N != a.N {
			return tensor.Shape{}, fmt.Errorf("matmul batch mismatch %d vs %d", a.N, b.N)
		}
		return tensor.Shape{N: a.N, C: a.C, H: a.H, W: bn}, nil

	case OpAdd, OpMul:
		in, err := inputShapes(n, shapes, 2)
		if err != nil {
			return tensor.Shape{}, err
		}
		a, b := in[0], in[1]
		if a != b && !broadcastable(b, a) {
			return tensor.Shape{}, fmt.Errorf("%s shape mismatch %v vs %v", n.Op, a, b)
		}
		return a, nil

	case OpConcat:
		in, err := inputShapes(n, shapes, 2)
		if err != nil {
			return tensor.Shape{}, err
		}
		out := in[0]
		flat := out.C == 1 && out.H == 1
		for _, s := range in[1:] {
			if flat && s.C == 1 && s.H == 1 && s.N == out.N {
				out.W += s.W // flattened vectors join along W
				continue
			}
			if s.N != out.N || s.H != out.H || s.W != out.W {
				return tensor.Shape{}, fmt.Errorf("concat spatial mismatch %v vs %v", out, s)
			}
			out.C += s.C
		}
		return out, nil

	case OpResize:
		in, err := inputShapes(n, shapes, 1)
		if err != nil {
			return tensor.Shape{}, err
		}
		x := in[0]
		scale := n.AttrInt("scale", 2)
		if scale < 1 {
			return tensor.Shape{}, fmt.Errorf("bad resize scale %d", scale)
		}
		return tensor.Shape{N: x.N, C: x.C, H: x.H * scale, W: x.W * scale}, nil

	case OpTokens:
		in, err := inputShapes(n, shapes, 1)
		if err != nil {
			return tensor.Shape{}, err
		}
		x := in[0]
		return tensor.Shape{N: x.N, C: 1, H: x.H * x.W, W: x.C}, nil

	case OpPatchMerge:
		in, err := inputShapes(n, shapes, 1)
		if err != nil {
			return tensor.Shape{}, err
		}
		x := in[0]
		if x.H%4 != 0 {
			return tensor.Shape{}, fmt.Errorf("patch merge needs seq %% 4 == 0, got %d", x.H)
		}
		return tensor.Shape{N: x.N, C: x.C, H: x.H / 4, W: x.W * 4}, nil
	}
	return tensor.Shape{}, fmt.Errorf("unknown op %q", n.Op)
}

// broadcastable reports whether shape b broadcasts onto a under the limited
// rules the zoo needs (per-channel bias / SE gating).
func broadcastable(b, a tensor.Shape) bool {
	if b.N == 1 && b.C == a.C && b.H == 1 && b.W == 1 {
		return true
	}
	if b == a {
		return true
	}
	// SE gate: (N, C, 1, 1) scaling (N, C, H, W)
	return b.N == a.N && b.C == a.C && b.H == 1 && b.W == 1
}
