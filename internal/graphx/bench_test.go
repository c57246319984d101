package graphx

import (
	"testing"

	"pask/internal/backend"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
)

// BenchmarkExecPrimitiveWarm is one warm launch of a compiled primitive
// instruction at its static instance: the static-plan check, the launch
// plan of its kernel calls, the reuse check of each bound function, the
// launch and the issue span under the forwarding tracer serving uses: the
// per-layer host cost of a warm request.
func BenchmarkExecPrimitiveWarm(b *testing.B) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(b, "res", 1, reg, CompileOptions{})
	su := materialize(b, reg, m)
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), su.store, backend.HIP)
	runner := su.newRunner(rt, metrics.NewForwardingTracer())
	in := primitives(m)[0]
	env.Spawn("host", func(p *sim.Proc) {
		defer gpu.CloseAll()
		if err := runner.RunBaseline(p, m); err != nil {
			b.Error(err)
			return
		}
		inst, err := in.Instance(reg)
		if err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runner.ExecPrimitive(p, in, inst); err != nil {
				b.Error(err)
				return
			}
			if i%64 == 63 {
				runner.Stream.Synchronize(p)
			}
		}
		b.StopTimer()
		runner.Stream.Synchronize(p)
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
