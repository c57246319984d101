// Package tensor provides the minimal dense-tensor data plane used by the
// functional reference kernels: 4-D shapes, NCHW/NHWC memory layouts, the
// fp32/fp16/int8 element types that GPU solutions specialize on, and layout /
// precision transforms (the operations NNV12 eliminates and PASK's solutions
// bundle as extra kernels). Layout and precision are the generality axes the
// paper's §III-B reuse trades against performance.
//
// Simulated runs never touch tensor data; functional runs (tests, the
// `functional` example) use fp32 host buffers regardless of the declared
// DType, with fp16/int8 semantics applied by value quantization.
//
// Paper anchor: the §III-B generality axes (layout, precision) that reuse trades against performance.
package tensor

import (
	"fmt"
	"math"
)

// DType identifies the element type a kernel is specialized for.
type DType uint8

const (
	F32 DType = iota
	F16
	I8
)

var dtypeNames = [...]string{"f32", "f16", "i8"}

func (d DType) String() string {
	if int(d) < len(dtypeNames) {
		return dtypeNames[d]
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case F32:
		return 4
	case F16:
		return 2
	case I8:
		return 1
	}
	return 4
}

// ParseDType converts a string produced by DType.String back to a DType.
func ParseDType(s string) (DType, error) {
	for i, n := range dtypeNames {
		if n == s {
			return DType(i), nil
		}
	}
	return F32, fmt.Errorf("tensor: unknown dtype %q", s)
}

// Layout identifies the memory layout of a 4-D activation tensor.
type Layout uint8

const (
	NCHW Layout = iota
	NHWC
)

func (l Layout) String() string {
	switch l {
	case NCHW:
		return "NCHW"
	case NHWC:
		return "NHWC"
	}
	return fmt.Sprintf("layout(%d)", uint8(l))
}

// Shape is a 4-D activation shape (batch, channels, height, width). Lower
// dimensional tensors set trailing spatial dims to 1.
type Shape struct {
	N, C, H, W int
}

// Elems returns the number of elements.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Bytes returns the storage size for the given element type.
func (s Shape) Bytes(d DType) int64 { return int64(s.Elems()) * int64(d.Size()) }

func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

// Tensor is a dense 4-D fp32 host tensor with an explicit layout tag. Data is
// always stored in the order implied by Layout.
type Tensor struct {
	Shape  Shape
	Layout Layout
	Data   []float32
}

// New allocates a zero tensor of the given shape and layout.
func New(s Shape, l Layout) *Tensor {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{Shape: s, Layout: l, Data: make([]float32, s.Elems())}
}

// index returns the flat offset of (n,c,h,w) honoring the layout.
func (t *Tensor) index(n, c, h, w int) int {
	s := t.Shape
	switch t.Layout {
	case NCHW:
		return ((n*s.C+c)*s.H+h)*s.W + w
	case NHWC:
		return ((n*s.H+h)*s.W+w)*s.C + c
	}
	panic("tensor: bad layout")
}

// At returns the element at (n,c,h,w).
func (t *Tensor) At(n, c, h, w int) float32 { return t.Data[t.index(n, c, h, w)] }

// Set stores v at (n,c,h,w).
func (t *Tensor) Set(n, c, h, w int, v float32) { t.Data[t.index(n, c, h, w)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: t.Shape, Layout: t.Layout, Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Fill sets every element using f(flat index).
func (t *Tensor) Fill(f func(i int) float32) {
	for i := range t.Data {
		t.Data[i] = f(i)
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between two
// tensors of identical shape (layouts may differ; comparison is logical).
func MaxAbsDiff(a, b *Tensor) float64 {
	if a.Shape != b.Shape {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	var m float64
	s := a.Shape
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					d := math.Abs(float64(a.At(n, c, h, w)) - float64(b.At(n, c, h, w)))
					if d > m {
						m = d
					}
				}
			}
		}
	}
	return m
}
