package kernels

import "pask/internal/tensor"

// Workload is the arithmetic and memory traffic a kernel performs; the
// device roofline model converts it into a duration.
type Workload struct {
	Flops int64 // multiply-adds counted as 2 flops
	Bytes int64 // global memory traffic
}

// Scale returns the workload multiplied by f (used for algorithmic
// reductions such as Winograd's multiply savings).
func (w Workload) Scale(f float64) Workload {
	return Workload{Flops: int64(float64(w.Flops) * f), Bytes: int64(float64(w.Bytes) * f)}
}

// ConvWorkload returns the direct-algorithm workload of a grouped conv:
// 2*N*K*OH*OW*(C/g)*R*S flops and input+weight+output traffic.
func ConvWorkload(in tensor.Shape, k, r, s int, p Conv2DParams, groups int, dt tensor.DType) Workload {
	oh, ow := p.OutSize(in.H, in.W, r, s)
	if oh <= 0 || ow <= 0 {
		return Workload{}
	}
	cPerG := in.C / groups
	flops := 2 * int64(in.N) * int64(k) * int64(oh) * int64(ow) * int64(cPerG) * int64(r) * int64(s)
	bytes := in.Bytes(dt) +
		tensor.Shape{N: k, C: cPerG, H: r, W: s}.Bytes(dt) +
		tensor.Shape{N: in.N, C: k, H: oh, W: ow}.Bytes(dt)
	return Workload{Flops: flops, Bytes: bytes}
}

// WinogradFlopScale is the multiply reduction of F(2x2,3x3): a 2x2 output
// tile costs 16 multiplies instead of 36.
const WinogradFlopScale = 16.0 / 36.0

// PoolWorkload returns the workload of 2-D pooling (1 op per window element).
func PoolWorkload(in tensor.Shape, p Pool2DParams, dt tensor.DType) Workload {
	oh, ow := p.OutSize(in.H, in.W)
	if oh <= 0 || ow <= 0 {
		return Workload{}
	}
	flops := int64(in.N) * int64(in.C) * int64(oh) * int64(ow) * int64(p.WinH) * int64(p.WinW)
	bytes := in.Bytes(dt) + tensor.Shape{N: in.N, C: in.C, H: oh, W: ow}.Bytes(dt)
	return Workload{Flops: flops, Bytes: bytes}
}

// ActWorkload returns the workload of an elementwise activation.
func ActWorkload(in tensor.Shape, dt tensor.DType) Workload {
	return Workload{Flops: int64(in.Elems()) * 4, Bytes: 2 * in.Bytes(dt)}
}

// GemmWorkload returns the workload of an m x n x k GEMM.
func GemmWorkload(m, n, k int, dt tensor.DType) Workload {
	es := int64(dt.Size())
	return Workload{
		Flops: 2 * int64(m) * int64(n) * int64(k),
		Bytes: es * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)),
	}
}

// TransformWorkload returns the workload of a layout/precision interchange
// kernel over shape s: pure memory traffic, read+write.
func TransformWorkload(s tensor.Shape, dt tensor.DType) Workload {
	return Workload{Flops: int64(s.Elems()), Bytes: 2 * s.Bytes(dt)}
}
