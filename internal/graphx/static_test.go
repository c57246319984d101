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
	su := materialize(t, reg, m)
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), su.store, backend.HIP)
	runner := su.newRunner(rt, metrics.NewForwardingTracer())
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
			st := in.static
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
	su := materialize(t, reg, m)
	objs := su.store.Batch()
	miopen.MaterializeObjects(objs, reg.Ctx().Dev.Arch, []miopen.Instance{sub})
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	env, runner, _ := newProcess(t, su)
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
				t.Errorf("ExecPrimitive(%s) launched %v, want %v", inst.Path(), launched, want)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaticResolveConcurrent runs concurrent processes of one set-up over
// one shared compiled model: each asks every primitive instruction for its
// static plan and launches it at its static instance. Every caller must get
// the registry's canonical instance and the problem the instruction
// interned at compile time. Run it under -race.
func TestStaticResolveConcurrent(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "res", 1, reg, CompileOptions{})
	su := materialize(t, reg, m)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env, runner, _ := newProcess(t, su)
			env.Spawn("host", func(p *sim.Proc) {
				defer runner.RT.GPU().CloseAll()
				ins := primitives(m)
				for k := range ins {
					in := ins[(g*len(ins)/4+k)%len(ins)]
					inst, prob, err := in.Static(reg)
					if err != nil {
						t.Error(err)
						return
					}
					sol, _ := reg.ByID(in.SolutionID)
					if inst != sol.Instance(in.Binding) || prob != reg.Intern(&in.Problem) {
						t.Errorf("%s: Static = %s on %p, not the registry's canonical instance and record", in.Name, inst.Path(), prob)
						return
					}
					if err := runner.ExecPrimitive(p, in, inst); err != nil {
						t.Error(err)
						return
					}
				}
				runner.Sync(p)
			})
			if err := env.Run(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestForeignRegistryRefused hands a compiled model to a process whose
// primitive or GEMM registry is not the set-up's. The model is bound to the
// registries it was compiled and materialized against: every other one
// gets an error and no kernel runs. Materializing it for a second set-up
// is refused too.
func TestForeignRegistryRefused(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "swin", 1, reg, CompileOptions{})
	su := materialize(t, reg, m)
	var prim, gemm *Instruction
	for i := range m.Instrs {
		switch in := &m.Instrs[i]; {
		case in.Kind == KindPrimitive && prim == nil:
			prim = in
		case in.Kind == KindGemm && gemm == nil:
			gemm = in
		}
	}
	if prim == nil || gemm == nil {
		t.Fatal("swin must have a primitive and a GEMM instruction")
	}
	foreign := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	if _, _, err := prim.Static(foreign); err == nil {
		t.Error("Static accepted a registry the model was not compiled against")
	}
	if _, err := prim.Instance(foreign); err == nil {
		t.Error("Instance accepted a registry the model was not compiled against")
	}
	if _, err := gemm.InternedGemm(blas.NewRegistry(device.MI100())); err == nil {
		t.Error("InternedGemm accepted a BLAS registry the model was not materialized against")
	}
	if err := MaterializeModel(su.store.Batch(), reg, blas.NewRegistry(device.MI100()), m); err == nil {
		t.Error("MaterializeModel bound the model to a second BLAS registry")
	}

	for _, c := range []struct {
		name string
		su   *setup
		in   *Instruction
	}{
		{"primitive registry", &setup{reg: foreign, breg: su.breg, store: su.store}, prim},
		{"GEMM registry", &setup{reg: reg, breg: blas.NewRegistry(device.MI100()), store: su.store}, gemm},
	} {
		env, runner, _ := newProcess(t, c.su)
		launched := 0
		runner.RT.GPU().OnKernel = func(string, time.Duration, time.Duration) { launched++ }
		var err error
		env.Spawn("host", func(p *sim.Proc) {
			defer runner.RT.GPU().CloseAll()
			err = runner.ExecInstr(p, c.in)
			runner.Sync(p)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if err == nil || launched != 0 {
			t.Errorf("foreign %s: ExecInstr(%s) = %v with %d kernels run, want a refusal and none", c.name, c.in.Name, err, launched)
		}
	}
}
