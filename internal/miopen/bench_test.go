package miopen

import (
	"testing"

	"pask/internal/sim"
)

// BenchmarkRunSolutionWarm is one warm launch of a loaded conv solution
// the way a substitute runs: the kernel-call memo, the bound binding, the
// reuse check of each bound function and the launch itself.
func BenchmarkRunSolutionWarm(b *testing.B) {
	p := conv3x3(64, 64, 28)
	env, lib := newLibRuntime(b, []*Problem{&p})
	ip := lib.Reg.Intern(&p)
	best, err := lib.Reg.FindBest(&p)
	if err != nil {
		b.Fatal(err)
	}
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		if err := lib.RunSolution(proc, stream, best.Inst, best.Inst.Sol.Calls(ip)); err != nil {
			b.Error(err)
			return
		}
		stream.Synchronize(proc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := lib.RunSolution(proc, stream, best.Inst, best.Inst.Sol.Calls(ip)); err != nil {
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

// BenchmarkCheckApplicable is one charged applicability check. shared_hit
// is the verdict a cold process reads that an earlier process of the same
// set-up already recorded in the problem's table; second_process asks it
// through a new Library each time, the first check of a cold process.
func BenchmarkCheckApplicable(b *testing.B) {
	b.Run("shared_hit", func(b *testing.B) {
		reg := NewRegistry(testCtx())
		p := conv3x3(64, 64, 28)
		rxs, _ := reg.ByID("ConvBinWinogradRxSFwd")
		cases := []verdictCase{{inst: Bind(rxs, &p), prob: reg.Intern(&p)}}
		env, first := newCheckProcess(reg)
		checkAll(b, env, first, cases)

		env, lib := newCheckProcess(reg)
		env.Spawn("host", func(proc *sim.Proc) {
			defer lib.RT.GPU().CloseAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !lib.CheckApplicable(proc, cases[0].inst, cases[0].prob) {
					b.Error("RxS inapplicable")
					return
				}
			}
			b.StopTimer()
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	})

	b.Run("second_process", func(b *testing.B) {
		reg := NewRegistry(testCtx())
		p := conv3x3(64, 64, 28)
		rxs, _ := reg.ByID("ConvBinWinogradRxSFwd")
		cases := []verdictCase{{inst: Bind(rxs, &p), prob: reg.Intern(&p)}}
		env, first := newCheckProcess(reg)
		checkAll(b, env, first, cases)

		env, lib := newCheckProcess(reg)
		libs := make([]*Library, b.N)
		for i := range libs {
			libs[i] = NewLibrary(reg, lib.RT)
		}
		env.Spawn("host", func(proc *sim.Proc) {
			defer lib.RT.GPU().CloseAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !libs[i].CheckApplicable(proc, cases[0].inst, cases[0].prob) {
					b.Error("RxS inapplicable")
					return
				}
			}
			b.StopTimer()
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	})
}
