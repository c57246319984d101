package miopen

import (
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/hip"
	"pask/internal/sim"
)

// newLibRuntime builds a library over a store materialized for the given
// problems.
func newLibRuntime(t testing.TB, problems []*Problem) (*sim.Env, *Library) {
	t.Helper()
	reg := NewRegistry(testCtx())
	store := codeobj.NewStore()
	objs := store.Batch()
	for _, p := range problems {
		for _, r := range reg.Find(p) {
			MaterializeObjects(objs, reg.Ctx().Dev.Arch, []Instance{r.Inst})
		}
	}
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := hip.NewRuntime(env, gpu, device.DefaultHost(), store)
	return env, NewLibrary(reg, rt)
}

func TestRunSolutionLazyLoadsAndExecutes(t *testing.T) {
	p := conv3x3(64, 64, 28)
	env, lib := newLibRuntime(t, []*Problem{&p})
	best, err := lib.Reg.FindBest(&p)
	if err != nil {
		t.Fatal(err)
	}
	var coldDur, warmDur time.Duration
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		t0 := proc.Now()
		if err := lib.RunSolution(proc, stream, best.Inst, &p); err != nil {
			t.Error(err)
			return
		}
		stream.Synchronize(proc)
		coldDur = proc.Now() - t0
		t1 := proc.Now()
		if err := lib.RunSolution(proc, stream, best.Inst, &p); err != nil {
			t.Error(err)
			return
		}
		stream.Synchronize(proc)
		warmDur = proc.Now() - t1
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if lib.RT.Stats().ModuleLoads != 1 {
		t.Fatalf("loads = %d, want 1 (lazy, then cached)", lib.RT.Stats().ModuleLoads)
	}
	if warmDur >= coldDur {
		t.Fatalf("warm run (%v) not faster than cold (%v)", warmDur, coldDur)
	}
	// The warm run is close to the pure estimate.
	est := EstimateTime(lib.Reg.Ctx().Dev, best.Inst.Sol, &p)
	if warmDur < est {
		t.Fatalf("warm run (%v) faster than the physics estimate (%v)", warmDur, est)
	}
}

// TestRunSolutionWarmAllocatesNothing pins the warm launch path: with the
// object loaded and the launch plan memoized, RunSolution reuses its bound
// functions, launches without completion signals and allocates nothing.
func TestRunSolutionWarmAllocatesNothing(t *testing.T) {
	p := conv3x3(64, 64, 28)
	env, lib := newLibRuntime(t, []*Problem{&p})
	ranked := lib.Reg.Find(&p)
	if len(ranked) == 0 {
		t.Fatal("no solution found")
	}
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		// Grow the stream's queue past what the measured launches keep in
		// flight, so its ring never reallocates inside the measurement.
		for i := 0; i < 1024; i++ {
			stream.Launch(proc, "prewarm", time.Millisecond)
		}
		stream.Synchronize(proc)
		for _, r := range ranked {
			if err := lib.RunSolution(proc, stream, r.Inst, &p); err != nil {
				t.Error(err)
				return
			}
			stream.Synchronize(proc)
			allocs := testing.AllocsPerRun(100, func() {
				if err := lib.RunSolution(proc, stream, r.Inst, &p); err != nil {
					t.Error(err)
				}
			})
			stream.Synchronize(proc)
			if allocs != 0 {
				t.Errorf("%s: warm RunSolution allocates %v times, want 0", r.Inst.Key(), allocs)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunSolutionNeverLaunchesStaleFunctions pins the launch plan's
// rebinding: after the instance's module is unloaded the next run loads it
// again, and a run of the same solution at another binding resolves that
// binding's object instead of reusing the plan's functions.
func TestRunSolutionNeverLaunchesStaleFunctions(t *testing.T) {
	p := conv3x3(64, 64, 28)
	env, lib := newLibRuntime(t, []*Problem{&p})
	best, err := lib.Reg.FindBest(&p)
	if err != nil {
		t.Fatal(err)
	}
	unstored := Instance{Sol: best.Inst.Sol, Binding: best.Inst.Binding + "_unstored"}
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		for i, step := range []struct {
			inst   Instance
			unload bool
			fails  bool
			loads  int
		}{
			{inst: best.Inst, loads: 1},
			{inst: best.Inst, unload: true, loads: 2},
			{inst: unstored, fails: true, loads: 2},
			{inst: best.Inst, loads: 2},
		} {
			if step.unload {
				lib.RT.Unload(best.Inst.Path())
			}
			err := lib.RunSolution(proc, stream, step.inst, &p)
			if (err != nil) != step.fails {
				t.Errorf("step %d: RunSolution(%s) = %v, want failure %v", i, step.inst.Key(), err, step.fails)
			}
			if got := lib.RT.Stats().ModuleLoads; got != step.loads {
				t.Errorf("step %d: %d module loads, want %d", i, got, step.loads)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckApplicableChargesAndCounts(t *testing.T) {
	p := conv3x3(64, 64, 28)
	env, lib := newLibRuntime(t, []*Problem{&p})
	rxs, _ := lib.Reg.ByID("ConvBinWinogradRxSFwd")
	inst := Bind(rxs, &p)
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		start := proc.Now()
		if !lib.CheckApplicable(proc, inst, &p) {
			t.Error("RxS should be applicable")
		}
		if got := proc.Now() - start; got != lib.RT.Host().ApplicabilityCheck {
			t.Errorf("check cost %v, want %v", got, lib.RT.Host().ApplicabilityCheck)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if lib.ApplicabilityChecks() != 1 {
		t.Fatalf("checks = %d", lib.ApplicabilityChecks())
	}
}

// TestDisableOverridesMemoizedCheck checks that a kill switch thrown after a
// memoized "applicable" verdict still fails the check, and that the check is
// charged either way.
func TestDisableOverridesMemoizedCheck(t *testing.T) {
	p := conv3x3(64, 64, 28)
	env, lib := newLibRuntime(t, []*Problem{&p})
	rxs, _ := lib.Reg.ByID("ConvBinWinogradRxSFwd")
	inst := Bind(rxs, &p)
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		if !lib.CheckApplicable(proc, inst, &p) {
			t.Error("RxS should be applicable before it is disabled")
		}
		lib.Disable(rxs.ID())
		start := proc.Now()
		if lib.CheckApplicable(proc, inst, &p) {
			t.Error("disabled RxS still applicable")
		}
		if got := proc.Now() - start; got != lib.RT.Host().ApplicabilityCheck {
			t.Errorf("check cost %v, want %v", got, lib.RT.Host().ApplicabilityCheck)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if lib.ApplicabilityChecks() != 2 {
		t.Fatalf("checks = %d, want 2", lib.ApplicabilityChecks())
	}
}

func TestRunSolutionMissingObjectFails(t *testing.T) {
	p := conv3x3(64, 64, 28)
	reg := NewRegistry(testCtx())
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := hip.NewRuntime(env, gpu, device.DefaultHost(), codeobj.NewStore()) // empty store
	lib := NewLibrary(reg, rt)
	best, err := reg.FindBest(&p)
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("host", func(proc *sim.Proc) {
		defer gpu.CloseAll()
		if err := lib.RunSolution(proc, gpu.DefaultStream(), best.Inst, &p); err == nil {
			t.Error("expected missing-object error")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadResidentsRegistersAllResidents(t *testing.T) {
	reg := NewRegistry(testCtx())
	store := codeobj.NewStore()
	objs := store.Batch()
	MaterializeObjects(objs, reg.Ctx().Dev.Arch, reg.Residents())
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := hip.NewRuntime(env, gpu, device.DefaultHost(), store)
	lib := NewLibrary(reg, rt)
	env.Spawn("host", func(proc *sim.Proc) {
		defer gpu.CloseAll()
		if err := lib.LoadResidents(proc); err != nil {
			t.Error(err)
			return
		}
		for _, inst := range reg.Residents() {
			if !lib.IsLoaded(inst) {
				t.Errorf("resident %s not loaded", inst.Key())
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().ModuleLoads != 0 {
		t.Fatalf("residents must not count as loads, got %d", rt.Stats().ModuleLoads)
	}
}

func TestResidentsContainGenericsAndBinKernels(t *testing.T) {
	reg := NewRegistry(testCtx())
	res := reg.Residents()
	byKey := map[string]bool{}
	for _, inst := range res {
		byKey[inst.Key()] = true
	}
	for _, want := range []string{
		"ConvGemmNaiveFwd.pko",
		"ConvDirectNaiveFwd.pko",
		"ConvWinogradNaiveFwd.pko",
		"PoolingNaiveFwd.pko",
		"ActivationNaiveFwd.pko",
		"ConvBinWinogradRxSFwd_f32.pko",
		"ConvImplicitGemmV4R1Fwd_f16.pko",
	} {
		if !byKey[want] {
			t.Errorf("missing resident %s", want)
		}
	}
	// Per-problem specialists are never resident.
	for k := range byKey {
		if k == "ConvBinWinogradFwdFixed.pko" {
			t.Error("per-problem specialist must not be resident")
		}
	}
}
