package pask_test

import (
	"fmt"
	"log"

	"pask"
)

// ExampleNewSystem compiles ResNet-34 for the MI100 profile and compares a
// reactive cold start against PASK. Virtual times are deterministic, so the
// derived facts below always hold.
func ExampleNewSystem() {
	sys, err := pask.NewSystem(pask.Config{Model: "res", Device: "MI100"})
	if err != nil {
		log.Fatal(err)
	}
	base, err := sys.RunScheme(pask.Baseline)
	if err != nil {
		log.Fatal(err)
	}
	fast, err := sys.RunScheme(pask.PaSK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PaSK faster than Baseline:", fast.Total < base.Total)
	fmt.Println("PaSK loads fewer objects:", fast.Loads < base.Loads)
	fmt.Println("every reuse query hit:", fast.ReuseHits == fast.ReuseQueries && fast.ReuseQueries > 0)
	// Output:
	// PaSK faster than Baseline: true
	// PaSK loads fewer objects: true
	// every reuse query hit: true
}

// ExampleSystem_ColdHot measures the paper's Fig 1(a) quantities: the first
// inference of a fresh process versus a steady-state iteration.
func ExampleSystem_ColdHot() {
	sys, err := pask.NewSystem(pask.Config{Model: "alex"})
	if err != nil {
		log.Fatal(err)
	}
	cold, hot, err := sys.ColdHot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cold start slower than 10x hot:", cold > 10*hot)
	// Output:
	// cold start slower than 10x hot: true
}

// ExampleSystem_RunScheme_options shows the §VI extensions: PASK managing
// the BLAS library's GEMM kernels for a transformer model.
func ExampleSystem_RunScheme_options() {
	sys, err := pask.NewSystem(pask.Config{Model: "swin"})
	if err != nil {
		log.Fatal(err)
	}
	plain, err := sys.RunScheme(pask.PaSK)
	if err != nil {
		log.Fatal(err)
	}
	scoped, err := sys.RunScheme(pask.PaSK, pask.WithBlasScope())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BLAS scope helps transformers:", scoped.Total < plain.Total)
	// Output:
	// BLAS scope helps transformers: true
}
