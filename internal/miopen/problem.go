// Package miopen reimplements the find-and-run interface of a DL primitive
// library (MIOpen/cuDNN style) on top of the simulated HIP runtime: problems
// describe one layer's computation, solutions implement it with a specific
// algorithm *pattern* at a specific *specialization* level, and the library
// selects the fastest applicable solution per problem (paper §II-B, Fig 4).
//
// The specialization ladder is the substrate PASK exploits: highly
// specialized solutions are fastest but bind to narrow problem classes (and
// each binding is its own code object), while generic solutions cover broad
// classes from a single already-loadable object.
//
// Paper anchor: §II-B find-and-run primitive library (Fig 4) and the specialization ladder §III-B exploits.
package miopen

import (
	"fmt"

	"pask/internal/kernels"
	"pask/internal/tensor"
)

// Primitive identifies the layer types the library accelerates.
type Primitive uint8

const (
	Convolution Primitive = iota
	Pooling
	Activation
)

var primitiveNames = [...]string{"conv", "pool", "act"}

func (pr Primitive) String() string {
	if int(pr) < len(primitiveNames) {
		return primitiveNames[pr]
	}
	return fmt.Sprintf("primitive(%d)", uint8(pr))
}

// Problem is the full descriptor the framework hands to the library for one
// layer: geometry, parameters, element type and the current data layout.
type Problem struct {
	Primitive Primitive

	In     tensor.Shape
	DType  tensor.DType
	Layout tensor.Layout

	// Convolution fields.
	K, R, S int
	Conv    kernels.Conv2DParams
	Groups  int

	// Pooling fields.
	Pool     kernels.Pool2DParams
	PoolMode kernels.PoolMode

	// Activation fields.
	Act      kernels.ActKind
	ActAlpha float32
}

// NewConvProblem builds a convolution problem descriptor.
func NewConvProblem(in tensor.Shape, k, r, s int, conv kernels.Conv2DParams, groups int, dt tensor.DType, layout tensor.Layout) Problem {
	return Problem{
		Primitive: Convolution,
		In:        in, DType: dt, Layout: layout,
		K: k, R: r, S: s, Conv: conv, Groups: groups,
	}
}

// NewPoolProblem builds a pooling problem descriptor.
func NewPoolProblem(in tensor.Shape, pool kernels.Pool2DParams, mode kernels.PoolMode, dt tensor.DType, layout tensor.Layout) Problem {
	return Problem{
		Primitive: Pooling,
		In:        in, DType: dt, Layout: layout,
		Pool: pool, PoolMode: mode,
	}
}

// NewActProblem builds an activation problem descriptor.
func NewActProblem(in tensor.Shape, act kernels.ActKind, alpha float32, dt tensor.DType, layout tensor.Layout) Problem {
	return Problem{
		Primitive: Activation,
		In:        in, DType: dt, Layout: layout,
		Act: act, ActAlpha: alpha,
	}
}

// Valid reports whether the descriptor is internally consistent.
func (p *Problem) Valid() bool {
	if !p.In.Valid() {
		return false
	}
	switch p.Primitive {
	case Convolution:
		if p.K <= 0 || p.R <= 0 || p.S <= 0 || p.Groups <= 0 || !p.Conv.Valid() {
			return false
		}
		if p.In.C%p.Groups != 0 || p.K%p.Groups != 0 {
			return false
		}
		oh, ow := p.Conv.OutSize(p.In.H, p.In.W, p.R, p.S)
		return oh > 0 && ow > 0
	case Pooling:
		if !p.Pool.Valid() {
			return false
		}
		oh, ow := p.Pool.OutSize(p.In.H, p.In.W)
		return oh > 0 && ow > 0
	case Activation:
		return true
	}
	return false
}

// OutShape returns the layer's output tensor shape.
func (p *Problem) OutShape() tensor.Shape {
	switch p.Primitive {
	case Convolution:
		return kernels.ConvOutShape(p.In, p.K, p.R, p.S, p.Conv)
	case Pooling:
		return kernels.PoolOutShape(p.In, p.Pool)
	default:
		return p.In
	}
}

// Key returns a canonical string identity for the problem, used by the
// performance database.
func (p *Problem) Key() string {
	switch p.Primitive {
	case Convolution:
		return fmt.Sprintf("conv-%v-k%d-r%ds%d-st%d.%d-pd%d.%d-dl%d.%d-g%d-%v-%v",
			p.In, p.K, p.R, p.S,
			p.Conv.StrideH, p.Conv.StrideW, p.Conv.PadH, p.Conv.PadW,
			p.Conv.DilH, p.Conv.DilW, p.Groups, p.DType, p.Layout)
	case Pooling:
		return fmt.Sprintf("pool-%v-%v-w%dx%d-st%d.%d-pd%d.%d-%v-%v",
			p.In, p.PoolMode, p.Pool.WinH, p.Pool.WinW,
			p.Pool.StrideH, p.Pool.StrideW, p.Pool.PadH, p.Pool.PadW, p.DType, p.Layout)
	case Activation:
		return fmt.Sprintf("act-%v-%v-a%.3f-%v-%v", p.In, p.Act, p.ActAlpha, p.DType, p.Layout)
	}
	return "invalid"
}

// Depthwise reports whether the convolution is depthwise (groups == C == K).
func (p *Problem) Depthwise() bool {
	return p.Primitive == Convolution && p.Groups > 1 && p.Groups == p.In.C && p.K == p.In.C
}

// Workload returns the direct-algorithm workload of the problem.
func (p *Problem) Workload() kernels.Workload {
	switch p.Primitive {
	case Convolution:
		return kernels.ConvWorkload(p.In, p.K, p.R, p.S, p.Conv, p.Groups, p.DType)
	case Pooling:
		return kernels.PoolWorkload(p.In, p.Pool, p.DType)
	case Activation:
		return kernels.ActWorkload(p.In, p.DType)
	}
	return kernels.Workload{}
}

// Parallelism returns the number of independent output work items the
// layer's kernels can spread across compute units — the occupancy driver.
func (p *Problem) Parallelism() int64 {
	out := p.OutShape()
	return int64(out.N) * int64(out.C) * int64(out.H) * int64(out.W)
}
