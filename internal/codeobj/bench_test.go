package codeobj

import (
	"fmt"
	"testing"
)

// benchSpecs builds a kernel layout shaped like the library's real objects:
// one main kernel plus bundled helpers, with metadata like the solution
// families attach.
func benchSpecs(kernels, codeSize int) []KernelSpec {
	specs := make([]KernelSpec, kernels)
	for i := range specs {
		specs[i] = KernelSpec{
			Name:     fmt.Sprintf("bench_kernel_%d", i),
			Pattern:  "Winograd",
			CodeSize: codeSize,
			Meta:     map[string]string{"dtype": "f32", "tile": "16x16"},
		}
	}
	return specs
}

func benchObject(b *testing.B, kernels, codeSize int) []byte {
	b.Helper()
	data, err := Build("bench.pko", "gfx908", benchSpecs(kernels, codeSize))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkParse measures the code-object decode path the module registry
// pays on every load miss. The "small" shape is a helper-sized object, the
// "model" shape matches a specialized conv solution's container (one large
// main kernel plus a helper, ~0.5 MB) — the dominant real input.
func BenchmarkParse(b *testing.B) {
	shapes := []struct {
		name     string
		kernels  int
		codeSize int
	}{
		{"small_4x2KB", 4, 2 << 10},
		{"model_2x256KB", 2, 256 << 10},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			data := benchObject(b, s.kernels, s.codeSize)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParseSymbolLookup pins the post-parse symbol resolution cost the
// registry pays per ModuleGetFunction.
func BenchmarkParseSymbolLookup(b *testing.B) {
	data := benchObject(b, 8, 1<<10)
	obj, err := Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := obj.Symbol("bench_kernel_7"); !ok {
			b.Fatal("symbol missing")
		}
	}
}

// BenchmarkBuild measures building the same two shapes, the work every
// model set-up pays per code object it puts in the store.
func BenchmarkBuild(b *testing.B) {
	shapes := []struct {
		name     string
		kernels  int
		codeSize int
	}{
		{"small_4x2KB", 4, 2 << 10},
		{"model_2x256KB", 2, 256 << 10},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			specs := benchSpecs(s.kernels, s.codeSize)
			b.SetBytes(int64(len(benchObject(b, s.kernels, s.codeSize))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build("bench.pko", "gfx908", specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
