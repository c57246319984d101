package blas

import (
	"testing"

	"pask/internal/sim"
)

// BenchmarkBlasRunWarm is one warm GEMM: the shared ranking, the reuse checks
// of the bound shared archive and the chosen instance's function, and the
// launch.
func BenchmarkBlasRunWarm(b *testing.B) {
	env, lib := newTestLib(b)
	p := attnProblem()
	materialize(b, lib, p)
	ip := lib.Reg.Intern(&p)
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		if err := lib.Run(proc, stream, ip); err != nil {
			b.Error(err)
			return
		}
		stream.Synchronize(proc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := lib.Run(proc, stream, ip); err != nil {
				b.Error(err)
				return
			}
			if i%64 == 63 {
				stream.Synchronize(proc)
			}
		}
		b.StopTimer()
		stream.Synchronize(proc)
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBlasFind/second_process is the first GEMM find of a cold
// process whose set-up already ranked the problem: each op asks through a
// new Library over the shared registry.
func BenchmarkBlasFind(b *testing.B) {
	b.Run("second_process", func(b *testing.B) {
		_, first := newTestLib(b)
		p := attnProblem()
		ip := first.Reg.Intern(&p)
		libs := make([]*Library, b.N)
		for i := range libs {
			libs[i] = NewLibrary(first.Reg, first.RT)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(libs[i].Find(ip)) == 0 {
				b.Fatal("no kernel")
			}
		}
	})
}
