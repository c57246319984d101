package graphx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pask/internal/device"
	"pask/internal/miopen"
	"pask/internal/onnx"
	"pask/internal/tensor"
)

// tinyCNN builds a small but structurally rich CNN: conv ladder, pooling,
// SE-style gating, residual add, FC head.
func tinyCNN(t *testing.T) *onnx.Graph {
	t.Helper()
	b := onnx.NewBuilder("tiny", tensor.Shape{N: 1, C: 3, H: 24, W: 24}, tensor.F32)
	x := b.Conv("c1", b.Input(), 16, 3, 1, 1, 1)
	x = b.Relu("r1", x)
	x = b.MaxPool("p1", x, 2, 2, 0)
	y := b.Conv("c2", x, 16, 3, 1, 1, 1)
	y = b.Relu("r2", y)
	g := b.GlobalAvgPool("se_gap", y)
	g = b.Conv("se_fc", g, 16, 1, 1, 0, 1)
	g = b.Sigmoid("se_sig", g)
	y = b.Mul("se_mul", y, g)
	x = b.Add("res", x, y)
	x = b.Conv("c3", x, 32, 1, 1, 0, 1)
	x = b.GlobalAvgPool("gap", x)
	x = b.Flatten("flat", x)
	x = b.FC("fc", x, 10)
	graph, err := b.Finish(x)
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// tinyTransformer builds a one-block transformer over small token counts.
func tinyTransformer(t *testing.T) *onnx.Graph {
	t.Helper()
	b := onnx.NewBuilder("tinyvit", tensor.Shape{N: 1, C: 3, H: 16, W: 16}, tensor.F32)
	x := b.Conv("patch", b.Input(), 8, 4, 4, 0, 1)
	x = b.Tokens("tok", x) // (1,1,16,8)
	ln := b.LayerNorm("ln1", x)
	q := b.MatMulParam("q", ln, 8)
	k := b.MatMulParam("k", ln, 8)
	v := b.MatMulParam("v", ln, 8)
	sc := b.MatMul("qk", q, k, true)
	pr := b.Softmax("sm", sc)
	ctx := b.MatMul("ctx", pr, v, false)
	x = b.Add("attn_add", x, ctx)
	h := b.MatMulParam("mlp1", x, 16)
	h = b.Gelu("gelu", h)
	h = b.MatMulParam("mlp2", h, 8)
	x = b.Add("mlp_add", x, h)
	x = b.PatchMerge("merge", x)
	x = b.MatMulParam("head", x, 4)
	graph, err := b.Finish(x)
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

func randomInput(s tensor.Shape, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(s, tensor.NCHW)
	in.Fill(func(int) float32 { return rng.Float32()*2 - 1 })
	return in
}

func TestFunctionalRunProducesFiniteOutput(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	for _, build := range []func(*testing.T) *onnx.Graph{tinyCNN, tinyTransformer} {
		g := build(t)
		out, err := FunctionalRun(g, BestPicker(reg), randomInput(g.InputShape, 1), 42)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s output[%d] = %v", g.Name, i, v)
			}
		}
	}
}

// TestReusePreservesResults is the end-to-end correctness theorem of PASK:
// executing every layer with the most generic applicable solution (what the
// cache substitutes) produces the same numbers as the statically optimal
// specialists.
func TestReusePreservesResults(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	for _, build := range []func(*testing.T) *onnx.Graph{tinyCNN, tinyTransformer} {
		g := build(t)
		in := randomInput(g.InputShape, 7)
		best, err := FunctionalRun(g, BestPicker(reg), in, 42)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := FunctionalRun(build(t), GenericPicker(reg), in, 42)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(best, gen); d > 1e-3 {
			t.Fatalf("%s: generic substitution changed results by %v", g.Name, d)
		}
	}
}

func TestFunctionalRunDeterministic(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	g1 := tinyCNN(t)
	g2 := tinyCNN(t)
	in := randomInput(g1.InputShape, 3)
	a, err := FunctionalRun(g1, BestPicker(reg), in, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FunctionalRun(g2, BestPicker(reg), in, 42)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("same seed, same input, different output")
	}
	c, err := FunctionalRun(tinyCNN(t), BestPicker(reg), in, 43)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(a, c) == 0 {
		t.Fatal("different weight seeds produced identical output")
	}
}

func TestFunctionalRejectsBadInput(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	g := tinyCNN(t)
	wrong := tensor.New(tensor.Shape{N: 1, C: 3, H: 8, W: 8}, tensor.NCHW)
	if _, err := FunctionalRun(g, BestPicker(reg), wrong, 1); err == nil {
		t.Fatal("wrong input shape must fail")
	}
}

// TestOptimizePreservesSemantics: the graph passes (BN fold, CSE, DCE) must
// not change the computed function.
func TestOptimizePreservesSemantics(t *testing.T) {
	build := func() *onnx.Graph {
		b := onnx.NewBuilder("opt", tensor.Shape{N: 1, C: 3, H: 16, W: 16}, tensor.F32)
		x := b.Conv("c1", b.Input(), 8, 3, 1, 1, 1)
		x = b.BatchNorm("bn1", x)
		x = b.Relu("r1", x)
		a := b.Relu("dup1", x)
		bdup := b.Relu("dup2", x) // CSE candidate
		x = b.Add("add", a, bdup)
		_ = b.Conv("dead", x, 4, 1, 1, 0, 1)
		x = b.GlobalAvgPool("gap", x)
		g, err := b.Finish(x)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	in := randomInput(tensor.Shape{N: 1, C: 3, H: 16, W: 16}, 5)
	plain := build()
	raw, err := FunctionalRun(plain, BestPicker(reg), in, 9)
	if err != nil {
		t.Fatal(err)
	}
	optimized := build()
	Optimize(optimized)
	opt, err := FunctionalRun(optimized, BestPicker(reg), in, 9)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(raw, opt); d > 1e-5 {
		t.Fatalf("optimization changed results by %v", d)
	}
}

// Property: for random tiny CNNs, best-vs-generic picking agrees.
func TestReuseEquivalenceProperty(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := onnx.NewBuilder("rand", tensor.Shape{N: 1, C: 3, H: 16, W: 16}, tensor.F32)
		x := b.Input()
		layers := rng.Intn(3) + 1
		for i := 0; i < layers; i++ {
			ch := []int{4, 8, 16}[rng.Intn(3)]
			k := []int{1, 3}[rng.Intn(2)]
			x = b.Conv(convName("c", i), x, ch, k, 1, k/2, 1)
			if rng.Intn(2) == 0 {
				x = b.Relu(convName("r", i), x)
			}
		}
		x = b.GlobalAvgPool("gap", x)
		g, err := b.Finish(x)
		if err != nil {
			return false
		}
		in := randomInput(g.InputShape, seed)
		best, err := FunctionalRun(g, BestPicker(reg), in, seed)
		if err != nil {
			return false
		}
		gen, err := FunctionalRun(g, GenericPicker(reg), in, seed)
		if err != nil {
			return false
		}
		return tensor.MaxAbsDiff(best, gen) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func convName(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}

// TestFusionPreservesSemantics: the opt-in Conv+ReLU fusion must compute
// the same function while removing the activation nodes.
func TestFusionPreservesSemantics(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	in := randomInput(tensor.Shape{N: 1, C: 3, H: 24, W: 24}, 4)
	plain := tinyCNN(t)
	ref, err := FunctionalRun(plain, BestPicker(reg), in, 11)
	if err != nil {
		t.Fatal(err)
	}
	fused := tinyCNN(t)
	n := FuseConvActivation(fused)
	if n == 0 {
		t.Fatal("no conv+relu pairs fused")
	}
	relus := 0
	for _, node := range fused.Nodes {
		if node.Op == onnx.OpRelu {
			relus++
		}
	}
	plainRelus := 0
	for _, node := range plain.Nodes {
		if node.Op == onnx.OpRelu {
			plainRelus++
		}
	}
	if relus >= plainRelus {
		t.Fatalf("fusion removed no relus: %d vs %d", relus, plainRelus)
	}
	got, err := FunctionalRun(fused, BestPicker(reg), in, 11)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref, got); d > 1e-5 {
		t.Fatalf("fusion changed results by %v", d)
	}
}

func TestFusionReducesPrimitiveInstructions(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	plain := compileZoo(t, "vgg", 1, reg, CompileOptions{})
	fused := compileZoo(t, "vgg", 1, reg, CompileOptions{FuseConvActivation: true})
	if fused.PrimitiveCount() >= plain.PrimitiveCount() {
		t.Fatalf("fusion did not shrink the plan: %d vs %d",
			fused.PrimitiveCount(), plain.PrimitiveCount())
	}
}
