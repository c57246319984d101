package core

import (
	"errors"
	"testing"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/graphx"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
)

// faultRun is coldRun without the fatal-on-error behavior: it returns the
// run error so tests can assert on degraded and failed outcomes alike.
func (h *harness) faultRun(t *testing.T, fn func(p *sim.Proc, r *graphx.Runner) error) error {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), h.store, backend.HIP)
	runner := h.newRunner(rt, &metrics.Tracer{})
	var runErr error
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		if err := runner.Lib.LoadResidents(p); err != nil {
			runErr = err
			return
		}
		runErr = fn(p, runner)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return runErr
}

// breakObject makes one stored object permanently unparseable.
func breakObject(t *testing.T, store *codeobj.Store, path string) {
	t.Helper()
	data, err := store.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(path, data[:4])
}

// breakNonResidentChosen truncates every statically chosen primitive object
// that is not part of the resident library binary, guaranteeing the run hits
// at least one load failure while LoadResidents still succeeds.
func breakNonResidentChosen(t *testing.T, h *harness) int {
	t.Helper()
	resident := make(map[string]bool)
	for _, inst := range h.reg.Residents() {
		resident[inst.Path()] = true
	}
	broken := make(map[string]bool)
	for i := range h.model.Instrs {
		in := &h.model.Instrs[i]
		if in.Kind != graphx.KindPrimitive {
			continue
		}
		inst, err := in.Instance(h.reg)
		if err != nil {
			t.Fatal(err)
		}
		path := inst.Path()
		if resident[path] || broken[path] || !h.store.Has(path) {
			continue
		}
		breakObject(t, h.store, path)
		broken[path] = true
	}
	if len(broken) == 0 {
		t.Fatal("model uses only resident objects; nothing to break")
	}
	return len(broken)
}

func TestDegradationSurvivesLoadFailure(t *testing.T) {
	h := newHarness(t, "alex", 1, graphx.CompileOptions{})
	breakNonResidentChosen(t, h)
	var res *Result
	err := h.faultRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var rerr error
		res, rerr = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return rerr
	})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if res.LoadFailures == 0 {
		t.Fatal("no load failure recorded despite broken object")
	}
	if res.Degraded() == 0 {
		t.Fatal("no layer recorded as degraded")
	}
	if len(res.Substitutions) == 0 {
		t.Fatal("no substitution recorded")
	}
	for _, s := range res.Substitutions {
		if !s.Forced {
			continue
		}
		if s.Got.Path() == s.Want.Path() {
			t.Fatalf("layer %s: substitute equals wanted instance", s.Layer)
		}
		if !s.Got.IsApplicable(h.reg.Ctx(), &s.Prob) {
			t.Fatalf("layer %s: substitute %s not applicable", s.Layer, s.Got.Path())
		}
	}
}

func TestDegradationSequentialSurvivesLoadFailure(t *testing.T) {
	h := newHarness(t, "alex", 1, graphx.CompileOptions{})
	breakNonResidentChosen(t, h)
	var res *Result
	err := h.faultRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var rerr error
		// An empty cache keeps ordinary GetSub reuse from absorbing the
		// broken objects, forcing the recovery ladder itself to serve them.
		res, rerr = RunSequentialReuse(p, r, h.model, NewNaiveCache(), Options{})
		return rerr
	})
	if err != nil {
		t.Fatalf("degraded sequential run failed: %v", err)
	}
	if res.Degraded() == 0 {
		t.Fatal("no layer recorded as degraded")
	}
}

func TestNoDegradationFailsFast(t *testing.T) {
	h := newHarness(t, "alex", 1, graphx.CompileOptions{})
	breakObject(t, h.store, "ConvDirectTiledFwd_f32.pko")
	// No LoadResidents and an empty cache: the eager phase must hit the
	// broken object on the first conv layer and abort under NoDegradation.
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), h.store, backend.HIP)
	runner := h.newRunner(rt, &metrics.Tracer{})
	var runErr error
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		_, runErr = RunInterleaved(p, runner, h.model, NewCategoricalCache(), true, Options{NoDegradation: true})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Fatal("NoDegradation run absorbed the load failure")
	}
	if !errors.Is(runErr, codeobj.ErrTruncated) {
		t.Fatalf("error %v does not wrap the parse failure", runErr)
	}
}

// TestNoDegradationFailsFastSequential checks that the sequential engine —
// PaSK-R cold starts and warm requests alike — honours NoDegradation: the
// broken object's load failure aborts the run instead of being recovered.
func TestNoDegradationFailsFastSequential(t *testing.T) {
	h := newHarness(t, "alex", 1, graphx.CompileOptions{})
	breakNonResidentChosen(t, h)
	for _, c := range []struct {
		name string
		run  func(*sim.Proc, *graphx.Runner, *graphx.CompiledModel, Cache, Options) (*Result, error)
	}{
		{"PaSK-R", RunSequentialReuse},
		{"warm", RunWarmReuse},
	} {
		err := h.faultRun(t, func(p *sim.Proc, r *graphx.Runner) error {
			// An empty cache leaves no substitute: the broken object must load.
			_, rerr := c.run(p, r, h.model, NewNaiveCache(), Options{NoDegradation: true})
			return rerr
		})
		if err == nil {
			t.Errorf("%s: NoDegradation run absorbed the load failure", c.name)
		} else if !errors.Is(err, codeobj.ErrTruncated) {
			t.Errorf("%s: error %v does not wrap the parse failure", c.name, err)
		}
	}
}

func TestNoUsableSolutionTyped(t *testing.T) {
	h := newHarness(t, "alex", 1, graphx.CompileOptions{})
	// Break every conv object so neither the chosen solution, the cache,
	// nor the ladder can serve conv layers. Resident generics stay usable
	// only if LoadResidents ran — skip seeding to drain the ladder fully.
	for _, path := range h.store.Paths() {
		if path == graphx.BuiltinObjectPath {
			continue
		}
		breakObject(t, h.store, path)
	}
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), h.store, backend.HIP)
	runner := h.newRunner(rt, &metrics.Tracer{})
	var runErr error
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		_, runErr = RunInterleaved(p, runner, h.model, NewCategoricalCache(), true, Options{})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Fatal("run with every object broken must fail")
	}
	if !errors.Is(runErr, ErrNoUsableSolution) {
		t.Fatalf("error %v does not wrap ErrNoUsableSolution", runErr)
	}
}

func TestGetSubAnyCrossPattern(t *testing.T) {
	generic, _, specialist, reg, prob := testInstances(t)
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	store := codeobj.NewStore()
	objs := store.Batch()
	miopen.MaterializeObjects(objs, device.MI100().Arch, []miopen.Instance{generic})
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)
	lib := miopen.NewLibrary(reg, rt)
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		if err := lib.EnsureLoaded(p, generic); err != nil {
			t.Error(err)
			return
		}
		c := NewCategoricalCache()
		c.Insert(generic)
		// GetSub only scans the wanted pattern's list; GetSubAny must reach
		// the generic even when the wanted specialist has another pattern.
		if generic.Sol.Pattern() != specialist.Sol.Pattern() {
			if _, ok := c.GetSub(p, lib, specialist, lib.Reg.Intern(&prob)); ok {
				t.Error("GetSub unexpectedly crossed patterns")
			}
		}
		sub, ok := c.GetSubAny(p, lib, specialist, lib.Reg.Intern(&prob))
		if !ok {
			t.Error("GetSubAny found no substitute")
			return
		}
		if sub.Path() != generic.Path() {
			t.Errorf("GetSubAny returned %s, want %s", sub.Path(), generic.Path())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGetSubAnySkipsUnloaded(t *testing.T) {
	generic, _, specialist, reg, prob := testInstances(t)
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	store := codeobj.NewStore()
	objs := store.Batch()
	miopen.MaterializeObjects(objs, device.MI100().Arch, []miopen.Instance{generic})
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)
	lib := miopen.NewLibrary(reg, rt)
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		c := NewCategoricalCache()
		c.Insert(generic) // cached but never loaded
		if _, ok := c.GetSubAny(p, lib, specialist, lib.Reg.Intern(&prob)); ok {
			t.Error("GetSubAny returned an unloaded instance")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
