package miopen

import (
	"testing"

	"pask/internal/sim"
)

// BenchmarkRunSolutionWarm is one warm launch of a loaded conv solution:
// the kernel-call memo, the instance path, the function lookup and the
// launch itself, the per-layer host cost of a warm request.
func BenchmarkRunSolutionWarm(b *testing.B) {
	p := conv3x3(64, 64, 28)
	env, lib := newLibRuntime(b, []*Problem{&p})
	best, err := lib.Reg.FindBest(&p)
	if err != nil {
		b.Fatal(err)
	}
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		if _, err := lib.RunSolution(proc, stream, best.Inst, &p); err != nil {
			b.Error(err)
			return
		}
		stream.Synchronize(proc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lib.RunSolution(proc, stream, best.Inst, &p); err != nil {
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
