package miopen

import (
	"fmt"

	"pask/internal/codeobj"
	"pask/internal/kernels"
	"pask/internal/tensor"
)

// occupancy models how well a kernel's parallel work fills the device:
// deep layers at batch 1 expose few work items and leave most compute units
// idle, which is why GPU execution is such a small share of cold start
// (paper Fig 1b) and why cold-start speedups shrink as batches grow and
// execution time catches up (paper Table II).
func occupancy(workItems int64) float64 {
	o := 0.035 + float64(workItems)/400000
	if o > 1 {
		return 1
	}
	return o
}

// mainSymbol returns the primary kernel symbol for a binding of f.
func mainSymbol(f *Solution, binding string) string {
	if binding == "" {
		return f.id + "_main"
	}
	return f.id + "_" + binding + "_main"
}

// defaultObjSpec builds the object layout: one main kernel plus bundled
// helper kernels (tensor repack, epilogue reduction — paper footnote 2).
func defaultObjSpec(f *Solution, binding string) []codeobj.KernelSpec {
	specs := []codeobj.KernelSpec{{
		Name:     mainSymbol(f, binding),
		Pattern:  string(f.pattern),
		CodeSize: f.mainCodeSize,
		Meta:     map[string]string{"solution": f.id, "binding": binding},
	}}
	for i := 0; i < f.helperSyms; i++ {
		specs = append(specs, codeobj.KernelSpec{
			Name:     fmt.Sprintf("%s_helper%d", mainSymbol(f, binding), i),
			Pattern:  string(f.pattern),
			CodeSize: f.helperCodeSize,
		})
	}
	return specs
}

// singleCall issues the main kernel with the problem's workload scaled by
// algoScale at the family's efficiency.
func singleCall(f *Solution, p *Problem, algoScale float64) []KernelCall {
	w := p.Workload()
	if algoScale != 1 {
		w = kernels.Workload{Flops: int64(float64(w.Flops) * algoScale), Bytes: w.Bytes}
	}
	return []KernelCall{{
		Symbol: mainSymbol(f, f.BindingKey(p)),
		Work:   w,
		Eff:    f.Efficiency(p),
	}}
}

// pow2Bucket floors v to a power of two clamped into [16, 512] — the tile
// bucketing specialized kernels template on.
func pow2Bucket(v int) int {
	b := 16
	for b*2 <= v && b < 512 {
		b *= 2
	}
	return b
}

// dt returns the short dtype tag used in bindings.
func dt(p *Problem) string { return p.DType.String() }

// Functional runners shared by conv families.

func runConvDirect(p *Problem, in, w, bias, out *tensor.Tensor) error {
	return kernels.ConvDirect(in, w, bias, out, p.Conv, p.Groups)
}

func runConvIm2col(p *Problem, in, w, bias, out *tensor.Tensor) error {
	return kernels.ConvIm2col(in, w, bias, out, p.Conv, p.Groups)
}

func runConvWinograd(p *Problem, in, w, bias, out *tensor.Tensor) error {
	if p.R == 3 && p.S == 3 && p.Conv.StrideH == 1 && p.Conv.StrideW == 1 &&
		p.Conv.DilH == 1 && p.Conv.DilW == 1 && p.Groups == 1 {
		return kernels.ConvWinograd(in, w, bias, out, p.Conv)
	}
	// Non-3x3 Winograd tiles fall back to the direct reference; the
	// numerical function is identical either way.
	return kernels.ConvDirect(in, w, bias, out, p.Conv, p.Groups)
}

// im2colWorkspace is the column-buffer size of GEMM-pattern solutions.
func im2colWorkspace(p *Problem) int64 {
	oh, ow := p.Conv.OutSize(p.In.H, p.In.W, p.R, p.S)
	cols := int64(p.In.C/p.Groups) * int64(p.R) * int64(p.S) * int64(oh) * int64(ow)
	return cols * int64(p.DType.Size())
}

// winogradScale returns the multiply-reduction factor of the Winograd
// algorithm for the problem's filter size.
func winogradScale(p *Problem) float64 {
	if p.R == 3 && p.S == 3 {
		return kernels.WinogradFlopScale
	}
	return 0.6 // larger tiles save less after transform overhead
}

// isPlainConv reports the common fast-path constraints: dense (groups=1),
// no dilation.
func isPlainConv(p *Problem) bool {
	return p.Groups == 1 && p.Conv.DilH == 1 && p.Conv.DilW == 1
}

func stride1(p *Problem) bool { return p.Conv.StrideH == 1 && p.Conv.StrideW == 1 }

// ConvSolutions returns the library's convolution ladder, from fully generic
// naive solutions to narrowly bound specialists (paper Fig 4).
func ConvSolutions() []*Solution {
	anyLayout := func(p *Problem) (tensor.Layout, bool) { return p.Layout, true }
	nchw := func(p *Problem) (tensor.Layout, bool) { return tensor.NCHW, false }
	nhwc := func(p *Problem) (tensor.Layout, bool) { return tensor.NHWC, false }

	gemmNaive := &Solution{
		id: "ConvGemmNaiveFwd", pattern: PatternGEMM, primitive: Convolution, spec: 1,
		applicable: func(ctx *Ctx, p *Problem) bool { return true },
		workspace:  im2colWorkspace,
		eff: func(p *Problem) float64 {
			if p.Groups > 1 {
				return 0.09
			}
			return 0.14
		},
		calls:          func(f *Solution, p *Problem) []KernelCall { return gemmConvCalls(f, p) },
		layout:         anyLayout,
		run:            runConvIm2col,
		mainCodeSize:   300 << 10,
		helperSyms:     2, // im2col + epilogue, all dtypes in one object
		helperCodeSize: 60 << 10,
	}

	directNaive := &Solution{
		id: "ConvDirectNaiveFwd", pattern: PatternDirect, primitive: Convolution, spec: 1,
		applicable:   func(ctx *Ctx, p *Problem) bool { return true },
		eff:          func(p *Problem) float64 { return 0.10 },
		calls:        func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:       anyLayout,
		run:          runConvDirect,
		mainCodeSize: 220 << 10,
	}

	winogradNaive := &Solution{
		id: "ConvWinogradNaiveFwd", pattern: PatternWinograd, primitive: Convolution, spec: 1,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return isPlainConv(p) && stride1(p) && p.R == p.S && p.R <= 7 && p.R%2 == 1 && p.R >= 3 &&
				p.DType != tensor.I8 // reference kernels compute in floating point
		},
		eff:            func(p *Problem) float64 { return 0.16 },
		calls:          func(f *Solution, p *Problem) []KernelCall { return winogradCalls(f, p) },
		layout:         anyLayout,
		run:            runConvWinograd,
		mainCodeSize:   340 << 10,
		helperSyms:     2, // input/filter transform kernels
		helperCodeSize: 70 << 10,
	}

	winogradRxS := &Solution{
		id: "ConvBinWinogradRxSFwd", pattern: PatternWinograd, primitive: Convolution, spec: 2,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return isPlainConv(p) && stride1(p) &&
				p.R <= 7 && p.S <= 7 && p.In.C >= 4 && p.K >= 8 &&
				p.In.H > 1 && p.In.W > 1 &&
				(p.DType == tensor.F32 || p.DType == tensor.F16)
		},
		binding:          func(p *Problem) string { return dt(p) },
		residentBindings: []string{"f32", "f16"},
		eff:              func(p *Problem) float64 { return 0.22 },
		calls:            func(f *Solution, p *Problem) []KernelCall { return winogradCalls(f, p) },
		layout:           nchw,
		run:              runConvWinograd,
		mainCodeSize:     420 << 10,
		helperSyms:       1,
		helperCodeSize:   90 << 10,
	}

	winogradFixed := &Solution{
		id: "ConvBinWinogradFwdFixed", pattern: PatternWinograd, primitive: Convolution, spec: 4,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return isPlainConv(p) && stride1(p) &&
				p.R == p.S && (p.R == 3 || p.R == 5) &&
				p.In.C >= 16 && p.K >= 16 &&
				p.In.H*p.In.W <= 28*28 && // LDS tiling bound
				(p.DType == tensor.F32 || p.DType == tensor.F16)
		},
		binding: func(p *Problem) string {
			// Compiled per problem configuration, like MIOpen's binary cache.
			return fmt.Sprintf("r%ds%d_c%dk%dh%d_%s", p.R, p.S, p.In.C, p.K, p.In.H, dt(p))
		},
		eff: func(p *Problem) float64 {
			if p.R == 3 {
				return 0.40
			}
			return 0.20 // F(2,5) transform overhead: the RxS kernel wins
		},
		calls:          func(f *Solution, p *Problem) []KernelCall { return winogradCalls(f, p) },
		layout:         nchw,
		run:            runConvWinograd,
		mainCodeSize:   650 << 10,
		helperSyms:     1,
		helperCodeSize: 80 << 10,
	}

	gemm1x1 := &Solution{
		id: "ConvGemmFwd1x1", pattern: PatternGEMM, primitive: Convolution, spec: 3,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return isPlainConv(p) && stride1(p) && p.R == 1 && p.S == 1 &&
				p.Conv.PadH == 0 && p.Conv.PadW == 0 &&
				p.In.C >= 8 && p.K >= 8 &&
				p.In.H*p.In.W <= 28*28 // tuned tiling holds only for small maps
		},
		binding: func(p *Problem) string {
			// Compiled per problem configuration, like MIOpen's binary cache.
			return fmt.Sprintf("c%dk%d_%s", p.In.C, p.K, dt(p))
		},
		eff:          func(p *Problem) float64 { return 0.45 },
		calls:        func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:       nhwc,
		run:          runConvIm2col,
		mainCodeSize: 420 << 10,
	}

	gemmStrided := &Solution{
		id: "ConvGemmStridedBatchedFwd", pattern: PatternGEMM, primitive: Convolution, spec: 2,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return isPlainConv(p) && p.Conv.StrideH <= 3 && p.Conv.StrideW <= 3 &&
				p.In.H > 1 && p.In.W > 1
		},
		binding:          func(p *Problem) string { return dt(p) },
		residentBindings: []string{"f32", "f16", "i8"},
		workspace:        im2colWorkspace,
		eff:              func(p *Problem) float64 { return 0.17 },
		calls:            func(f *Solution, p *Problem) []KernelCall { return gemmConvCalls(f, p) },
		layout:           anyLayout,
		run:              runConvIm2col,
		mainCodeSize:     360 << 10,
		helperSyms:       1,
		helperCodeSize:   70 << 10,
	}

	directTiled := &Solution{
		id: "ConvDirectTiledFwd", pattern: PatternDirect, primitive: Convolution, spec: 2,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return p.Groups == 1 && p.Conv.DilH == 1 && p.Conv.DilW == 1 &&
				p.In.C <= 16 && p.R <= 11 && p.S <= 11 &&
				p.Conv.StrideH <= 4 && p.Conv.StrideW <= 4
		},
		binding:          func(p *Problem) string { return dt(p) },
		residentBindings: []string{"f32", "f16"},
		eff:              func(p *Problem) float64 { return 0.30 },
		calls:            func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:           nchw,
		run:              runConvDirect,
		mainCodeSize:     450 << 10,
	}

	directDepthwise := &Solution{
		id: "ConvDirectDepthwiseFwd", pattern: PatternDirect, primitive: Convolution, spec: 3,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return p.Depthwise() && p.R == p.S && (p.R == 3 || p.R == 5 || p.R == 7) &&
				p.Conv.StrideH <= 2 && p.Conv.StrideW <= 2 &&
				p.Conv.DilH == 1 && p.Conv.DilW == 1
		},
		binding: func(p *Problem) string {
			return fmt.Sprintf("r%d_c%dh%d_%s", p.R, p.In.C, p.In.H, dt(p))
		},
		eff:          func(p *Problem) float64 { return 0.35 },
		calls:        func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:       nchw,
		run:          runConvDirect,
		mainCodeSize: 430 << 10,
	}

	igemmV4 := &Solution{
		id: "ConvImplicitGemmV4R1Fwd", pattern: PatternImplicitGEMM, primitive: Convolution, spec: 2,
		applicable: func(ctx *Ctx, p *Problem) bool {
			return isPlainConv(p) && p.Conv.StrideH <= 2 && p.Conv.StrideW <= 2 &&
				p.In.C%8 == 0 && p.K%8 == 0 &&
				p.In.H > 1 && p.In.W > 1
		},
		binding:          func(p *Problem) string { return dt(p) },
		residentBindings: []string{"f32", "f16"},
		eff:              func(p *Problem) float64 { return 0.32 },
		calls:            func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:           anyLayout,
		run:              runConvDirect,
		mainCodeSize:     560 << 10,
		helperSyms:       1,
		helperCodeSize:   110 << 10,
	}

	igemmXdlops := &Solution{
		id: "ConvImplicitGemmXdlopsFwd", pattern: PatternImplicitGEMM, primitive: Convolution, spec: 4,
		applicable: func(ctx *Ctx, p *Problem) bool {
			// XDLOPS matrix pipes exist on CDNA (gfx9) only: the hardware
			// capability validation of paper §II-B.
			arch := ctx.Dev.Arch
			hasMatrixPipes := (len(arch) >= 4 && arch[:4] == "gfx9") ||
				(len(arch) >= 3 && arch[:3] == "sm_") // tensor cores on NVIDIA
			if !hasMatrixPipes {
				return false
			}
			return isPlainConv(p) && p.R == 1 && p.S == 1 &&
				p.Conv.StrideH <= 2 && p.Conv.StrideW <= 2 &&
				p.In.C%16 == 0 && p.K%16 == 0 &&
				p.In.H*p.In.W >= 4 && p.In.H*p.In.W <= 28*28 && // spatial igemm, not plain GEMM
				(p.DType == tensor.F32 || p.DType == tensor.F16)
		},
		binding: func(p *Problem) string {
			// Compiled per problem configuration, like MIOpen's binary cache.
			return fmt.Sprintf("c%dk%dh%dst%d_%s", p.In.C, p.K, p.In.H, p.Conv.StrideH, dt(p))
		},
		eff:            func(p *Problem) float64 { return 0.55 },
		calls:          func(f *Solution, p *Problem) []KernelCall { return singleCall(f, p, 1) },
		layout:         nhwc,
		run:            runConvDirect,
		mainCodeSize:   700 << 10,
		helperSyms:     1,
		helperCodeSize: 120 << 10,
	}

	return []*Solution{
		gemmNaive, directNaive, winogradNaive,
		winogradRxS, winogradFixed,
		gemm1x1, gemmStrided,
		directTiled, directDepthwise,
		igemmV4, igemmXdlops,
	}
}

// winogradCalls issues filter/input transform kernels plus the batched GEMM
// main kernel, with the Winograd multiply reduction applied.
func winogradCalls(f *Solution, p *Problem) []KernelCall {
	eff := f.Efficiency(p)
	main := singleCall(f, p, winogradScale(p))[0]
	xform := kernels.TransformWorkload(p.In, p.DType)
	return []KernelCall{
		{Symbol: mainSymbol(f, f.BindingKey(p)) + "_helper0", Work: xform, Eff: clampEff(eff * 1.5)},
		main,
	}
}

// gemmConvCalls issues im2col lowering plus the GEMM main kernel.
func gemmConvCalls(f *Solution, p *Problem) []KernelCall {
	eff := f.Efficiency(p)
	im2col := kernels.Workload{
		Flops: 0,
		Bytes: p.In.Bytes(p.DType) + f.WorkspaceSize(p),
	}
	main := singleCall(f, p, 1)[0]
	return []KernelCall{
		{Symbol: mainSymbol(f, f.BindingKey(p)) + "_helper0", Work: im2col, Eff: clampEff(eff * 1.5)},
		main,
	}
}
