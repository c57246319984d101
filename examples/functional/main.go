// Functional: the correctness premise of PASK's kernel reuse, demonstrated
// numerically. A small CNN is executed twice on real tensors — once with the
// statically optimal specialized solutions (what the compiler picks) and
// once with the most generic applicable solutions (what PASK's cache
// substitutes when specialists are absent). The outputs agree to floating-
// point tolerance, which is why skipping a specialist's load never changes
// results (paper §II-B, Fig 2).
//
// Run with:
//
//	go run ./examples/functional
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pask/internal/device"
	"pask/internal/graphx"
	"pask/internal/miopen"
	"pask/internal/onnx"
	"pask/internal/tensor"
)

func main() {
	b := onnx.NewBuilder("demo", tensor.Shape{N: 1, C: 3, H: 32, W: 32}, tensor.F32)
	x := b.Conv("conv1", b.Input(), 16, 3, 1, 1, 1)
	x = b.Relu("relu1", x)
	x = b.MaxPool("pool1", x, 2, 2, 0)
	x = b.Conv("conv2", x, 32, 3, 1, 1, 1)
	x = b.Relu("relu2", x)
	x = b.Conv("conv3", x, 32, 1, 1, 0, 1)
	x = b.GlobalAvgPool("gap", x)
	x = b.Flatten("flat", x)
	x = b.FC("fc", x, 10)
	g, err := b.Finish(x)
	if err != nil {
		log.Fatal(err)
	}

	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	rng := rand.New(rand.NewSource(1))
	in := tensor.New(g.InputShape, tensor.NCHW)
	in.Fill(func(int) float32 { return rng.Float32()*2 - 1 })

	fmt.Println("per-layer solution selection:")
	db := miopen.NewPerfDB(reg)
	compiled, err := graphx.Compile(g, db, graphx.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i := range compiled.Instrs {
		in := &compiled.Instrs[i]
		if in.Kind == graphx.KindPrimitive {
			fmt.Printf("  %-8s -> %-26s (pattern %s)\n",
				in.Name, in.SolutionID, in.Problem.Primitive)
		}
	}

	best, err := graphx.FunctionalRun(g, graphx.BestPicker(reg), in, 99)
	if err != nil {
		log.Fatal(err)
	}
	generic, err := graphx.FunctionalRun(g, graphx.GenericPicker(reg), in, 99)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nlogits (specialized solutions):", head(best.Data, 5))
	fmt.Println("logits (generic substitutes):  ", head(generic.Data, 5))
	fmt.Printf("\nmax |difference| = %.2e — reuse preserves results\n",
		tensor.MaxAbsDiff(best, generic))
}

func head(v []float32, n int) []float32 {
	if len(v) < n {
		return v
	}
	return v[:n]
}
