package miopen

import (
	"fmt"

	"pask/internal/kernels"
	"pask/internal/tensor"
)

// PoolSolutions returns the pooling ladder: a fully generic kernel and a
// tiled specialist for the small windows CNN backbones use.
func PoolSolutions() []*Solution {
	anyLayout := func(p *Problem) (tensor.Layout, bool) { return p.Layout, true }
	nchw := func(p *Problem) (tensor.Layout, bool) { return tensor.NCHW, false }

	naive := &Solution{
		id: "PoolingNaiveFwd", pattern: PatternPooling, primitive: Pooling, spec: 1,
		applicable:   func(ctx *Ctx, p *Problem) bool { return true },
		eff:          func(p *Problem) float64 { return 0.30 },
		calls:        func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:       anyLayout,
		run:          runPool,
		mainCodeSize: 130 << 10,
	}

	tiled := &Solution{
		id: "PoolingTiled2DFwd", pattern: PatternPooling, primitive: Pooling, spec: 2,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return p.Pool.WinH <= 3 && p.Pool.WinW <= 3 &&
				p.Pool.StrideH <= 2 && p.Pool.StrideW <= 2 &&
				p.In.H > 1 && p.In.W > 1
		},
		binding: func(p *Problem) string {
			// Compiled per problem configuration, like MIOpen's binary cache.
			return fmt.Sprintf("w%dx%d_c%dh%d_%s", p.Pool.WinH, p.Pool.WinW, p.In.C, p.In.H, dt(p))
		},
		eff:          func(p *Problem) float64 { return 0.55 },
		calls:        func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:       nchw,
		run:          runPool,
		mainCodeSize: 260 << 10,
	}

	return []*Solution{naive, tiled}
}

// ActSolutions returns the activation ladder: a generic any-function kernel
// and a vectorized specialist for ReLU-family activations.
func ActSolutions() []*Solution {
	anyLayout := func(p *Problem) (tensor.Layout, bool) { return p.Layout, true }

	naive := &Solution{
		id: "ActivationNaiveFwd", pattern: PatternActivation, primitive: Activation, spec: 1,
		applicable: func(ctx *Ctx, p *Problem) bool {
			// The reference kernel computes in floating point; int8 ReLU
			// variants ship only as packed per-width specializations.
			if p.DType == tensor.I8 && (p.Act == kernels.ReLU || p.Act == kernels.LeakyReLU) {
				return false
			}
			return true
		},
		eff:          func(p *Problem) float64 { return 0.50 },
		calls:        func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:       anyLayout,
		run:          runAct,
		mainCodeSize: 90 << 10,
	}

	packed := &Solution{
		id: "ActivationPackedFwd", pattern: PatternActivation, primitive: Activation, spec: 2,
		applicable: func(ctx *Ctx, p *Problem) bool {
			if p.Act != kernels.ReLU && p.Act != kernels.LeakyReLU {
				return false
			}
			return p.In.Elems()%4 == 0 // packed vectorization, all element types
		},
		binding:      func(p *Problem) string { return fmt.Sprintf("c%d_%s", pow2Bucket(p.In.C), dt(p)) },
		eff:          func(p *Problem) float64 { return 0.85 },
		calls:        func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:       anyLayout,
		run:          runAct,
		mainCodeSize: 200 << 10,
	}

	return []*Solution{naive, packed}
}

// runPool executes pooling functionally; w and bias are unused.
func runPool(p *Problem, in, _, _, out *tensor.Tensor) error {
	return kernels.Pool2D(in, out, p.Pool, p.PoolMode)
}

// runAct executes the activation functionally; w and bias are unused.
func runAct(p *Problem, in, _, _, out *tensor.Tensor) error {
	return kernels.Activation(in, out, p.Act, p.ActAlpha)
}
