package onnx

import (
	"fmt"

	"pask/internal/tensor"
)

// Builder assembles a Graph with automatic tensor naming, parameter
// registration and incremental shape tracking. All zoo models are written
// against this API.
type Builder struct {
	g      *Graph
	shapes map[string]tensor.Shape
	nextID int
	err    error
}

// NewBuilder starts a model with the given input shape and element type.
func NewBuilder(name string, input tensor.Shape, dt tensor.DType) *Builder {
	g := &Graph{Name: name, Input: "input", InputShape: input, DType: dt}
	return &Builder{g: g, shapes: map[string]tensor.Shape{"input": input}}
}

// Input returns the graph input tensor name.
func (b *Builder) Input() string { return "input" }

// Shape returns the tracked shape of a tensor built so far.
func (b *Builder) Shape(t string) tensor.Shape { return b.shapes[t] }

func (b *Builder) fail(format string, args ...any) string {
	if b.err == nil {
		b.err = fmt.Errorf("onnx builder %s: %s", b.g.Name, fmt.Sprintf(format, args...))
	}
	return "!error"
}

func (b *Builder) addInit(name string, s tensor.Shape) string {
	b.g.Inits = append(b.g.Inits, Init{Name: name, Shape: s})
	b.shapes[name] = s
	return name
}

func (b *Builder) add(op Op, name string, inputs []string, ints map[string]int) string {
	if b.err != nil {
		return "!error"
	}
	if name == "" {
		b.nextID++
		name = fmt.Sprintf("%s_%d", op, b.nextID)
	}
	n := Node{Name: name, Op: op, Inputs: inputs, Output: name + ":0", Ints: ints}
	out, err := inferNode(&n, b.shapes)
	if err != nil {
		return b.fail("node %s: %v", name, err)
	}
	b.g.Nodes = append(b.g.Nodes, n)
	b.shapes[n.Output] = out
	return n.Output
}

// Conv adds a 2-D convolution with square kernel k, plus its weight and bias
// parameters.
func (b *Builder) Conv(name, x string, outC, k, stride, pad, groups int) string {
	if b.err != nil {
		return "!error"
	}
	xs, ok := b.shapes[x]
	if !ok {
		return b.fail("conv %s: unknown input %q", name, x)
	}
	if groups < 1 || xs.C%groups != 0 {
		return b.fail("conv %s: bad groups %d for C=%d", name, groups, xs.C)
	}
	w := b.addInit(name+".weight", tensor.Shape{N: outC, C: xs.C / groups, H: k, W: k})
	bias := b.addInit(name+".bias", tensor.Shape{N: outC, C: 1, H: 1, W: 1})
	return b.add(OpConv, name, []string{x, w, bias},
		map[string]int{"stride": stride, "pad": pad, "groups": groups})
}

// ConvRect adds a convolution with distinct kernel/stride/pad per axis.
func (b *Builder) ConvRect(name, x string, outC, kh, kw, sh, sw, ph, pw, groups int) string {
	if b.err != nil {
		return "!error"
	}
	xs, ok := b.shapes[x]
	if !ok {
		return b.fail("conv %s: unknown input %q", name, x)
	}
	w := b.addInit(name+".weight", tensor.Shape{N: outC, C: xs.C / groups, H: kh, W: kw})
	bias := b.addInit(name+".bias", tensor.Shape{N: outC, C: 1, H: 1, W: 1})
	return b.add(OpConv, name, []string{x, w, bias}, map[string]int{
		"stride_h": sh, "stride_w": sw, "pad_h": ph, "pad_w": pw, "groups": groups})
}

// DilatedConv adds a dilated convolution (FCN heads).
func (b *Builder) DilatedConv(name, x string, outC, k, stride, pad, dil int) string {
	if b.err != nil {
		return "!error"
	}
	xs, ok := b.shapes[x]
	if !ok {
		return b.fail("conv %s: unknown input %q", name, x)
	}
	w := b.addInit(name+".weight", tensor.Shape{N: outC, C: xs.C, H: k, W: k})
	bias := b.addInit(name+".bias", tensor.Shape{N: outC, C: 1, H: 1, W: 1})
	return b.add(OpConv, name, []string{x, w, bias},
		map[string]int{"stride": stride, "pad": pad, "dil": dil, "groups": 1})
}

// BatchNorm adds a batch-normalization node (folded into the preceding conv
// by the engine's optimizer).
func (b *Builder) BatchNorm(name, x string) string {
	if b.err != nil {
		return "!error"
	}
	xs := b.shapes[x]
	b.addInit(name+".scale", tensor.Shape{N: xs.C, C: 1, H: 1, W: 1})
	b.addInit(name+".shift", tensor.Shape{N: xs.C, C: 1, H: 1, W: 1})
	return b.add(OpBatchNorm, name, []string{x}, nil)
}

// Relu, Sigmoid, Gelu add elementwise activations.
func (b *Builder) Relu(name, x string) string    { return b.add(OpRelu, name, []string{x}, nil) }
func (b *Builder) Sigmoid(name, x string) string { return b.add(OpSigmoid, name, []string{x}, nil) }
func (b *Builder) Gelu(name, x string) string    { return b.add(OpGelu, name, []string{x}, nil) }

// MaxPool adds square-window max pooling.
func (b *Builder) MaxPool(name, x string, win, stride, pad int) string {
	return b.add(OpMaxPool, name, []string{x}, map[string]int{"win": win, "stride": stride, "pad": pad})
}

// GlobalAvgPool reduces spatial dims to 1x1.
func (b *Builder) GlobalAvgPool(name, x string) string {
	return b.add(OpGlobalPool, name, []string{x}, nil)
}

// Flatten collapses (C,H,W) into the W axis for FC layers.
func (b *Builder) Flatten(name, x string) string { return b.add(OpFlatten, name, []string{x}, nil) }

// FC adds a fully-connected layer via Gemm with weight (K, M).
func (b *Builder) FC(name, x string, outF int) string {
	if b.err != nil {
		return "!error"
	}
	xs, ok := b.shapes[x]
	if !ok {
		return b.fail("fc %s: unknown input %q", name, x)
	}
	w := b.addInit(name+".weight", tensor.Shape{N: 1, C: 1, H: xs.W, W: outF})
	return b.add(OpGemm, name, []string{x, w}, nil)
}

// MatMulParam multiplies by a parameter matrix (K, M) on the last axis.
func (b *Builder) MatMulParam(name, x string, outF int) string {
	if b.err != nil {
		return "!error"
	}
	xs, ok := b.shapes[x]
	if !ok {
		return b.fail("matmul %s: unknown input %q", name, x)
	}
	w := b.addInit(name+".weight", tensor.Shape{N: 1, C: 1, H: xs.W, W: outF})
	return b.add(OpMatMul, name, []string{x, w}, nil)
}

// MatMul multiplies two activations, optionally transposing the second.
func (b *Builder) MatMul(name, a, c string, transB bool) string {
	ints := map[string]int{}
	if transB {
		ints["trans_b"] = 1
	}
	return b.add(OpMatMul, name, []string{a, c}, ints)
}

// Add and Mul add elementwise binary nodes (residuals, SE gates).
func (b *Builder) Add(name, x, y string) string { return b.add(OpAdd, name, []string{x, y}, nil) }
func (b *Builder) Mul(name, x, y string) string { return b.add(OpMul, name, []string{x, y}, nil) }

// Concat joins tensors along channels.
func (b *Builder) Concat(name string, xs ...string) string { return b.add(OpConcat, name, xs, nil) }

// Softmax normalizes the last axis.
func (b *Builder) Softmax(name, x string) string { return b.add(OpSoftmax, name, []string{x}, nil) }

// LayerNorm normalizes the last axis with learned scale/shift.
func (b *Builder) LayerNorm(name, x string) string {
	if b.err != nil {
		return "!error"
	}
	xs := b.shapes[x]
	b.addInit(name+".scale", tensor.Shape{N: 1, C: 1, H: 1, W: xs.W})
	return b.add(OpLayerNorm, name, []string{x}, nil)
}

// Tokens reshapes a patch-embedded feature map into a token matrix.
func (b *Builder) Tokens(name, x string) string { return b.add(OpTokens, name, []string{x}, nil) }

// PatchMerge merges 2x2 token neighborhoods (Swin stage transitions).
func (b *Builder) PatchMerge(name, x string) string {
	return b.add(OpPatchMerge, name, []string{x}, nil)
}

// Resize upsamples spatially by an integer scale (decoder paths).
func (b *Builder) Resize(name, x string, scale int) string {
	return b.add(OpResize, name, []string{x}, map[string]int{"scale": scale})
}

// Finish seals the graph with the given output tensor and validates it.
func (b *Builder) Finish(output string) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.g.Output = output
	if _, err := b.g.InferShapes(); err != nil {
		return nil, err
	}
	return b.g, nil
}
