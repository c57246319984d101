package blas

import (
	"testing"

	"pask/internal/sim"
)

// BenchmarkBlasRunWarm is one warm GEMM: a find-memo hit, the reuse checks
// of the bound shared archive and the chosen instance's function, and the
// launch.
func BenchmarkBlasRunWarm(b *testing.B) {
	env, lib := newTestLib(b)
	p := attnProblem()
	materialize(b, lib, p)
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		if err := lib.Run(proc, stream, &p); err != nil {
			b.Error(err)
			return
		}
		stream.Synchronize(proc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := lib.Run(proc, stream, &p); err != nil {
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
