package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pask/internal/tensor"
)

func TestMaxPoolKnownValues(t *testing.T) {
	in := tensor.New(sh(1, 1, 4, 4), tensor.NCHW)
	in.Data = []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	p := Pool2DParams{WinH: 2, WinW: 2, StrideH: 2, StrideW: 2}
	out := tensor.New(PoolOutShape(in.Shape, p), tensor.NCHW)
	if err := Pool2D(in, out, p, MaxPool); err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("max pool out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestAvgPoolExcludesPadding(t *testing.T) {
	in := tensor.New(sh(1, 1, 2, 2), tensor.NCHW)
	in.Data = []float32{4, 4, 4, 4}
	p := Pool2DParams{WinH: 2, WinW: 2, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	out := tensor.New(PoolOutShape(in.Shape, p), tensor.NCHW)
	if err := Pool2D(in, out, p, AvgPool); err != nil {
		t.Fatal(err)
	}
	// Corner windows see exactly one real element: average must be 4, not 1.
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("corner avg = %v, want 4 (padding excluded)", out.At(0, 0, 0, 0))
	}
	if out.At(0, 0, 1, 1) != 4 {
		t.Fatalf("center avg = %v, want 4", out.At(0, 0, 1, 1))
	}
}

func TestPoolShapeError(t *testing.T) {
	in := tensor.New(sh(1, 1, 4, 4), tensor.NCHW)
	out := tensor.New(sh(1, 1, 4, 4), tensor.NCHW)
	p := Pool2DParams{WinH: 2, WinW: 2, StrideH: 2, StrideW: 2}
	if err := Pool2D(in, out, p, MaxPool); err == nil {
		t.Fatal("expected shape error")
	}
}

// Property: max pooling with a 1x1 window and stride 1 is the identity.
func TestPoolIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randTensor(rng, sh(1, rng.Intn(3)+1, rng.Intn(6)+1, rng.Intn(6)+1))
		p := Pool2DParams{WinH: 1, WinW: 1, StrideH: 1, StrideW: 1}
		out := tensor.New(PoolOutShape(in.Shape, p), tensor.NCHW)
		if err := Pool2D(in, out, p, MaxPool); err != nil {
			return false
		}
		return tensor.MaxAbsDiff(in, out) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		kind ActKind
		in   float32
		want float64
		tol  float64
	}{
		{ReLU, -1, 0, 0},
		{ReLU, 2, 2, 0},
		{LeakyReLU, -2, -0.2, 1e-6},
		{LeakyReLU, 3, 3, 0},
		{Sigmoid, 0, 0.5, 1e-6},
		{Tanh, 0, 0, 0},
		{Tanh, 1, math.Tanh(1), 1e-6},
		{GELU, 0, 0, 0},
		{GELU, 10, 10, 1e-3}, // saturates to identity for large x
	}
	for _, c := range cases {
		got := float64(c.kind.Apply(c.in, 0.1))
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v(%v) = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
}

func TestActivationTensor(t *testing.T) {
	in := tensor.New(sh(1, 1, 1, 4), tensor.NCHW)
	in.Data = []float32{-2, -1, 0, 3}
	out := tensor.New(in.Shape, tensor.NCHW)
	if err := Activation(in, out, ReLU, 0); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 3}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu[%d] = %v", i, out.Data[i])
		}
	}
	bad := tensor.New(sh(1, 1, 1, 5), tensor.NCHW)
	if err := Activation(in, bad, ReLU, 0); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestGemmIdentity(t *testing.T) {
	// A * I = A
	a := []float32{1, 2, 3, 4, 5, 6} // 2x3
	id := []float32{1, 0, 0, 0, 1, 0, 0, 0, 1}
	c := make([]float32, 6)
	if err := Gemm(false, false, 2, 3, 3, 1, a, id, 0, c); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("c[%d] = %v", i, c[i])
		}
	}
}

func TestGemmTransposeAndAccumulate(t *testing.T) {
	// C = 2*A^T*B + 3*C
	a := []float32{1, 2, 3, 4} // 2x2, A^T = [[1,3],[2,4]]
	b := []float32{1, 0, 0, 1}
	c := []float32{1, 1, 1, 1}
	if err := Gemm(true, false, 2, 2, 2, 2, a, b, 3, c); err != nil {
		t.Fatal(err)
	}
	want := []float32{2*1 + 3, 2*3 + 3, 2*2 + 3, 2*4 + 3}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestGemmBufferTooSmall(t *testing.T) {
	if err := Gemm(false, false, 2, 2, 2, 1, make([]float32, 3), make([]float32, 4), 0, make([]float32, 4)); err == nil {
		t.Fatal("expected buffer error")
	}
}

// Property: (A*B)^T == B^T * A^T via the transpose flags.
func TestGemmTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = rng.Float32()
		}
		for i := range b {
			b[i] = rng.Float32()
		}
		ab := make([]float32, m*n)
		if err := Gemm(false, false, m, n, k, 1, a, b, 0, ab); err != nil {
			return false
		}
		// B^T(n x k) * A^T(k x m) using trans flags on row-major b, a.
		ba := make([]float32, n*m)
		if err := Gemm(true, true, n, m, k, 1, b, a, 0, ba); err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(float64(ab[i*n+j]-ba[j*m+i])) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n := 4, 7
	data := make([]float32, m*n)
	for i := range data {
		data[i] = rng.Float32()*20 - 10
	}
	if err := Softmax(data, m, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			v := data[i*n+j]
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	data := []float32{1000, 1001}
	if err := Softmax(data, 1, 2); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(float64(data[0])) || math.IsNaN(float64(data[1])) {
		t.Fatal("softmax produced NaN for large inputs")
	}
}

func TestWorkloadAccounting(t *testing.T) {
	in := sh(1, 64, 56, 56)
	p := Conv2DParams{1, 1, 1, 1, 1, 1}
	w := ConvWorkload(in, 64, 3, 3, p, 1, tensor.F32)
	// 2*1*64*56*56*64*3*3
	wantFlops := int64(2 * 64 * 56 * 56 * 64 * 9)
	if w.Flops != wantFlops {
		t.Fatalf("conv flops = %d, want %d", w.Flops, wantFlops)
	}
	if w.Bytes <= 0 {
		t.Fatal("conv bytes must be positive")
	}

	g := GemmWorkload(128, 256, 512, tensor.F16)
	if g.Flops != 2*128*256*512 {
		t.Fatalf("gemm flops = %d", g.Flops)
	}
	if g.Bytes != 2*(128*512+512*256+128*256) {
		t.Fatalf("gemm bytes = %d", g.Bytes)
	}

	half := g.Scale(0.5)
	if half.Flops != g.Flops/2 {
		t.Fatalf("Scale flops = %d", half.Flops)
	}
}

func TestPoolAndActWorkloads(t *testing.T) {
	in := sh(1, 8, 16, 16)
	pw := PoolWorkload(in, Pool2DParams{WinH: 2, WinW: 2, StrideH: 2, StrideW: 2}, tensor.F32)
	if pw.Flops != int64(8*8*8*4) {
		t.Fatalf("pool flops = %d", pw.Flops)
	}
	aw := ActWorkload(in, tensor.F32)
	if aw.Bytes != 2*in.Bytes(tensor.F32) {
		t.Fatalf("act bytes = %d", aw.Bytes)
	}
	tw := TransformWorkload(in, tensor.F16)
	if tw.Bytes != 2*in.Bytes(tensor.F16) {
		t.Fatalf("transform bytes = %d", tw.Bytes)
	}
}
