package graphx

import (
	"slices"
	"sync"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/blas"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
)

// primitives returns pointers to m's primitive instructions.
func primitives(m *CompiledModel) []*Instruction {
	var out []*Instruction
	for i := range m.Instrs {
		if m.Instrs[i].Kind == KindPrimitive {
			out = append(out, &m.Instrs[i])
		}
	}
	return out
}

// TestStaticExecPrimitiveAllocatesNothing pins the warm launch of a
// compiled primitive instruction at its static instance: it goes through
// the kernel calls the instruction resolved once and allocates nothing
// under the forwarding tracer serving uses.
func TestStaticExecPrimitiveAllocatesNothing(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "res", 1, reg, CompileOptions{})
	store := materialize(t, reg, m)
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)
	runner := NewRunner(rt, miopen.NewLibrary(reg, rt), blas.NewLibrary(blas.NewRegistry(rt.GPU().Profile), rt), metrics.NewForwardingTracer())
	env.Spawn("host", func(p *sim.Proc) {
		defer gpu.CloseAll()
		// Grow the stream's queue past what the measured launches keep in
		// flight, so its ring never reallocates inside the measurement.
		for i := 0; i < 1024; i++ {
			runner.Stream.Launch(p, "prewarm", time.Millisecond)
		}
		if err := runner.RunBaseline(p, m); err != nil {
			t.Error(err)
			return
		}
		for _, in := range primitives(m) {
			inst, err := in.Instance(reg)
			if err != nil {
				t.Error(err)
				return
			}
			st := in.static.Load()
			if st == nil || st.inst != inst || st.calls != inst.Sol.Calls(reg.Intern(&in.Problem)) {
				t.Fatalf("%s: static plan %+v does not hold the resolved instance and its calls", in.Name, st)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := runner.ExecPrimitive(p, in, inst); err != nil {
					t.Error(err)
				}
			})
			runner.Stream.Synchronize(p)
			if allocs != 0 {
				t.Errorf("%s: warm ExecPrimitive allocates %v times, want 0", in.Name, allocs)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaticPlanFollowsRegistry runs one compiled model against two
// registries in turn. Every run resolves and launches the solutions of its
// own registry, never the static plan the other run left behind.
func TestStaticPlanFollowsRegistry(t *testing.T) {
	regs := []*miopen.Registry{
		miopen.NewRegistry(miopen.NewCtx(device.MI100())),
		miopen.NewRegistry(miopen.NewCtx(device.MI100())),
	}
	m := compileZoo(t, "res", 1, regs[0], CompileOptions{})
	store := materialize(t, regs[0], m)
	for round := 0; round < 4; round++ {
		reg := regs[round%2]
		env, runner, _ := newProcess(t, store, reg)
		env.Spawn("host", func(p *sim.Proc) {
			defer runner.RT.GPU().CloseAll()
			if err := runner.RunBaseline(p, m); err != nil {
				t.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		for _, in := range primitives(m) {
			st := in.static.Load()
			sol, _ := reg.ByID(in.SolutionID)
			if st == nil || st.prob.Registry() != reg || st.inst.Sol != sol || st.calls != sol.Calls(reg.Intern(&in.Problem)) {
				t.Fatalf("round %d, %s: static plan not resolved against the run's registry", round, in.Name)
			}
			inst, err := in.Instance(reg)
			if err != nil {
				t.Fatal(err)
			}
			if inst != sol.Instance(in.Binding) {
				t.Fatalf("round %d, %s: Instance = %s of another registry", round, in.Name, inst.Key())
			}
		}
	}
}

// TestStaticSubstituteLaunchesOwnKernels runs a substitute at a compiled
// instruction whose static plan is resolved: the launch must issue the
// substitute's kernels, as a fresh KernelCalls lists them, not the static
// instance's.
func TestStaticSubstituteLaunchesOwnKernels(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "res", 1, reg, CompileOptions{})
	var in *Instruction
	var sub miopen.Instance
	for _, cand := range primitives(m) {
		for _, r := range reg.Find(&cand.Problem) {
			if r.Inst.Sol.ID() != cand.SolutionID {
				in, sub = cand, r.Inst
				break
			}
		}
		if in != nil {
			break
		}
	}
	if in == nil {
		t.Fatal("res has no primitive with a second applicable solution")
	}
	store := materialize(t, reg, m)
	objs := store.Batch()
	miopen.MaterializeObjects(objs, reg.Ctx().Dev.Arch, []miopen.Instance{sub})
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	env, runner, _ := newProcess(t, store, reg)
	var launched []string
	runner.RT.GPU().OnKernel = func(name string, _, _ time.Duration) { launched = append(launched, name) }
	symbols := func(inst miopen.Instance) []string {
		var out []string
		for _, c := range inst.Sol.KernelCalls(&in.Problem) {
			out = append(out, c.Symbol)
		}
		return out
	}
	env.Spawn("host", func(p *sim.Proc) {
		defer runner.RT.GPU().CloseAll()
		static, err := in.Instance(reg)
		if err != nil {
			t.Error(err)
			return
		}
		for _, inst := range []miopen.Instance{static, sub, static} {
			launched = launched[:0]
			if err := runner.ExecPrimitive(p, in, inst); err != nil {
				t.Error(err)
				return
			}
			runner.Sync(p)
			if want := symbols(inst); !slices.Equal(launched, want) {
				t.Errorf("ExecPrimitive(%s) launched %v, want %v", inst.Key(), launched, want)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaticResolveConcurrent races the first resolution of every
// primitive instruction of one compiled model, against one registry and
// against two alternating ones. Every caller must get the canonical
// instance of its registry. Run it under -race.
func TestStaticResolveConcurrent(t *testing.T) {
	regs := []*miopen.Registry{
		miopen.NewRegistry(miopen.NewCtx(device.MI100())),
		miopen.NewRegistry(miopen.NewCtx(device.MI100())),
	}
	for _, alternate := range []bool{false, true} {
		m := compileZoo(t, "res", 1, regs[0], CompileOptions{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					reg := regs[0]
					if alternate {
						reg = regs[(g+round)%2]
					}
					for _, in := range primitives(m) {
						inst, err := in.Instance(reg)
						if err != nil {
							t.Error(err)
							return
						}
						sol, _ := reg.ByID(in.SolutionID)
						if inst != sol.Instance(in.Binding) {
							t.Errorf("%s: Instance = %s, not the registry's canonical instance", in.Name, inst.Key())
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
