package onnx

import (
	"encoding/json"
	"strings"
	"testing"

	"pask/internal/tensor"
)

func sh(n, c, h, w int) tensor.Shape { return tensor.Shape{N: n, C: c, H: h, W: w} }

// fromJSON decodes a serialized graph and validates it.
func fromJSON(data []byte) (*Graph, error) {
	var g Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, err
	}
	if _, err := g.InferShapes(); err != nil {
		return nil, err
	}
	return &g, nil
}

func smallCNN(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("small", sh(1, 3, 32, 32), tensor.F32)
	x := b.Conv("c1", b.Input(), 8, 3, 1, 1, 1)
	x = b.Relu("r1", x)
	x = b.MaxPool("p1", x, 2, 2, 0)
	x = b.Conv("c2", x, 16, 3, 1, 1, 1)
	x = b.Relu("r2", x)
	x = b.GlobalAvgPool("gap", x)
	x = b.Flatten("flat", x)
	x = b.FC("fc", x, 10)
	g, err := b.Finish(x)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderShapeTracking(t *testing.T) {
	b := NewBuilder("m", sh(2, 3, 64, 64), tensor.F32)
	x := b.Conv("c1", b.Input(), 32, 7, 2, 3, 1)
	if got := b.Shape(x); got != sh(2, 32, 32, 32) {
		t.Fatalf("conv shape = %v", got)
	}
	x = b.MaxPool("p1", x, 3, 2, 1)
	if got := b.Shape(x); got != sh(2, 32, 16, 16) {
		t.Fatalf("pool shape = %v", got)
	}
	x = b.Flatten("f", x)
	if got := b.Shape(x); got != sh(2, 1, 1, 32*16*16) {
		t.Fatalf("flatten shape = %v", got)
	}
	x = b.FC("fc", x, 10)
	if got := b.Shape(x); got != sh(2, 1, 1, 10) {
		t.Fatalf("fc shape = %v", got)
	}
}

func TestBuilderErrorPropagates(t *testing.T) {
	b := NewBuilder("bad", sh(1, 3, 8, 8), tensor.F32)
	x := b.Conv("c1", b.Input(), 8, 3, 1, 1, 2) // 3 % 2 != 0
	x = b.Relu("r1", x)                         // must not panic after error
	if _, err := b.Finish(x); err == nil {
		t.Fatal("expected builder error")
	}
	if !strings.Contains(b.err.Error(), "groups") {
		t.Fatalf("err = %v", b.err)
	}
}

func TestBuilderUnknownInput(t *testing.T) {
	b := NewBuilder("bad", sh(1, 3, 8, 8), tensor.F32)
	b.Conv("c1", "nope", 8, 3, 1, 1, 1)
	if b.err == nil {
		t.Fatal("expected unknown-input error")
	}
}

func TestInferShapesCoversAllTensors(t *testing.T) {
	g := smallCNN(t)
	shapes, err := g.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if _, ok := shapes[n.Output]; !ok {
			t.Fatalf("no shape for %q", n.Output)
		}
		for _, in := range n.Inputs {
			if _, ok := shapes[in]; !ok {
				t.Fatalf("no shape for input %q", in)
			}
		}
	}
}

func TestInferRejectsDoubleWrite(t *testing.T) {
	g := smallCNN(t)
	g.Nodes = append(g.Nodes, Node{Name: "dup", Op: OpRelu, Inputs: []string{g.Input}, Output: g.Nodes[0].Output})
	if _, err := g.InferShapes(); err == nil {
		t.Fatal("expected double-write error")
	}
}

func TestInferRejectsUnknownOp(t *testing.T) {
	g := smallCNN(t)
	g.Nodes[0].Op = "Bogus"
	if _, err := g.InferShapes(); err == nil {
		t.Fatal("expected unknown-op error")
	}
}

func TestInferRejectsMissingOutput(t *testing.T) {
	g := smallCNN(t)
	g.Output = "ghost"
	if _, err := g.InferShapes(); err == nil {
		t.Fatal("expected missing-output error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := smallCNN(t)
	data, err := g.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := fromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || back.NumOps() != g.NumOps() || back.Output != g.Output {
		t.Fatalf("round trip mismatch: %s/%d vs %s/%d", back.Name, back.NumOps(), g.Name, g.NumOps())
	}
	if back.ParamBytes() != g.ParamBytes() {
		t.Fatalf("params %d vs %d", back.ParamBytes(), g.ParamBytes())
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := fromJSON([]byte("{")); err == nil {
		t.Fatal("expected parse error")
	}
	g := smallCNN(t)
	g.Nodes[0].Inputs[0] = "ghost"
	data, _ := g.ToJSON()
	if _, err := fromJSON(data); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestTokensAndPatchMergeShapes(t *testing.T) {
	b := NewBuilder("t", sh(1, 3, 224, 224), tensor.F32)
	x := b.Conv("patch", b.Input(), 96, 4, 4, 0, 1)
	x = b.Tokens("tok", x)
	if got := b.Shape(x); got != sh(1, 1, 56*56, 96) {
		t.Fatalf("tokens shape = %v", got)
	}
	x = b.PatchMerge("pm", x)
	if got := b.Shape(x); got != sh(1, 1, 784, 384) {
		t.Fatalf("merge shape = %v", got)
	}
}

func TestMatMulShapes(t *testing.T) {
	b := NewBuilder("t", sh(2, 3, 64, 64), tensor.F32)
	x := b.Conv("patch", b.Input(), 32, 16, 16, 0, 1)
	x = b.Tokens("tok", x) // (2,1,16,32)
	q := b.MatMulParam("q", x, 32)
	k := b.MatMulParam("k", x, 32)
	s := b.MatMul("qk", q, k, true)
	if got := b.Shape(s); got != sh(2, 1, 16, 16) {
		t.Fatalf("scores shape = %v", got)
	}
	v := b.MatMulParam("v", x, 32)
	c := b.MatMul("ctx", s, v, false)
	if got := b.Shape(c); got != sh(2, 1, 16, 32) {
		t.Fatalf("context shape = %v", got)
	}
}

func TestMatMulDimensionError(t *testing.T) {
	b := NewBuilder("t", sh(1, 3, 64, 64), tensor.F32)
	x := b.Conv("patch", b.Input(), 32, 16, 16, 0, 1)
	x = b.Tokens("tok", x)
	q := b.MatMulParam("q", x, 32)
	k := b.MatMulParam("k", x, 48)
	b.MatMul("qk", q, k, false) // 32 vs 48 inner dims
	if b.err == nil {
		t.Fatal("expected inner-dim error")
	}
}

func TestBroadcastAddForSE(t *testing.T) {
	b := NewBuilder("t", sh(1, 8, 16, 16), tensor.F32)
	x := b.Conv("c", b.Input(), 8, 3, 1, 1, 1)
	g := b.GlobalAvgPool("gap", x)
	out := b.Mul("gate", x, g)
	if b.err != nil {
		t.Fatal(b.err)
	}
	if got := b.Shape(out); got != sh(1, 8, 16, 16) {
		t.Fatalf("gated shape = %v", got)
	}
}

func TestConcatChannelAndFlat(t *testing.T) {
	b := NewBuilder("t", sh(1, 4, 8, 8), tensor.F32)
	a := b.Conv("a", b.Input(), 4, 3, 1, 1, 1)
	c := b.Concat("cat", a, b.Input())
	if got := b.Shape(c); got != sh(1, 8, 8, 8) {
		t.Fatalf("channel concat = %v", got)
	}
	f1 := b.Flatten("f1", a)
	f2 := b.Flatten("f2", c)
	fc := b.Concat("fcat", f1, f2)
	if got := b.Shape(fc); got != sh(1, 1, 1, 4*64+8*64) {
		t.Fatalf("flat concat = %v", got)
	}
}

func TestParamBytesMatchesInits(t *testing.T) {
	g := smallCNN(t)
	var want int64
	for _, in := range g.Inits {
		want += in.Shape.Bytes(g.DType)
	}
	if g.ParamBytes() != want || want == 0 {
		t.Fatalf("ParamBytes = %d, want %d", g.ParamBytes(), want)
	}
	if _, ok := g.InitShape("c1.weight"); !ok {
		t.Fatal("c1.weight missing")
	}
	if _, ok := g.InitShape("ghost"); ok {
		t.Fatal("ghost init found")
	}
}

// TestInferNodeErrorPaths drives the per-op validation errors.
func TestInferNodeErrorPaths(t *testing.T) {
	in := sh(1, 4, 8, 8)
	shapes := map[string]tensor.Shape{
		"x":    in,
		"w":    sh(8, 4, 3, 3),
		"wbad": sh(8, 3, 3, 3),
		"wbig": sh(8, 4, 9, 9),
		"tok":  sh(1, 1, 10, 4), // seq 10: not divisible by 4
		"flat": sh(1, 1, 1, 16),
		"m":    sh(1, 1, 4, 6),
	}
	cases := []struct {
		name string
		node Node
	}{
		{"conv bad groups", Node{Op: OpConv, Inputs: []string{"x", "w"}, Ints: map[string]int{"groups": 3}}},
		{"conv weight mismatch", Node{Op: OpConv, Inputs: []string{"x", "wbad"}}},
		{"conv filter exceeds input", Node{Op: OpConv, Inputs: []string{"x", "wbig"}}},
		{"conv missing input", Node{Op: OpConv, Inputs: []string{"x"}}},
		{"conv unknown tensor", Node{Op: OpConv, Inputs: []string{"ghost", "w"}}},
		{"pool shrinks away", Node{Op: OpMaxPool, Inputs: []string{"x"}, Ints: map[string]int{"win": 30}}},
		{"gemm inner mismatch", Node{Op: OpGemm, Inputs: []string{"flat", "m"}}},
		{"matmul inner mismatch", Node{Op: OpMatMul, Inputs: []string{"m", "m"}}},
		{"matmul batch mismatch", Node{Op: OpMatMul, Inputs: []string{"m", "badbatch"}}},
		{"add shape mismatch", Node{Op: OpAdd, Inputs: []string{"x", "m"}}},
		{"concat mismatch", Node{Op: OpConcat, Inputs: []string{"x", "m"}}},
		{"resize bad scale", Node{Op: OpResize, Inputs: []string{"x"}, Ints: map[string]int{"scale": 0}}},
		{"patchmerge indivisible", Node{Op: OpPatchMerge, Inputs: []string{"tok"}}},
		{"unknown op", Node{Op: "Bogus", Inputs: []string{"x"}}},
	}
	shapes["badbatch"] = sh(3, 2, 6, 5)
	for _, c := range cases {
		n := c.node
		n.Name = c.name
		if _, err := inferNode(&n, shapes); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestBuilderLayerNormAndFCOnUnknown(t *testing.T) {
	b := NewBuilder("bad", sh(1, 3, 8, 8), tensor.F32)
	b.FC("fc", "ghost", 10)
	if b.err == nil {
		t.Fatal("FC on unknown tensor must fail")
	}
	b2 := NewBuilder("bad2", sh(1, 3, 8, 8), tensor.F32)
	b2.MatMulParam("mm", "ghost", 10)
	if b2.err == nil {
		t.Fatal("MatMulParam on unknown tensor must fail")
	}
}

func TestGraphValidationRejectsBadInits(t *testing.T) {
	g := smallCNN(t)
	g.Inits = append(g.Inits, Init{Name: "broken", Shape: tensor.Shape{}})
	if _, err := g.InferShapes(); err == nil {
		t.Fatal("invalid init shape must fail")
	}
	g2 := smallCNN(t)
	g2.InputShape = tensor.Shape{}
	if _, err := g2.InferShapes(); err == nil {
		t.Fatal("invalid input shape must fail")
	}
	g3 := smallCNN(t)
	g3.Nodes[2].Output = ""
	if _, err := g3.InferShapes(); err == nil {
		t.Fatal("empty node output must fail")
	}
}
