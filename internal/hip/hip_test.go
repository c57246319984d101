package hip

import (
	"strings"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

func testProfile() device.Profile {
	return device.Profile{
		Name: "test", Arch: "gfx908",
		PeakFlops: 1e12, MemBW: 1e11, PCIeBW: 1e10,
		LaunchLatency: 10 * time.Microsecond, KernelOverhead: 5 * time.Microsecond,
		ModuleLoadFixed: time.Millisecond, ModuleLoadBW: 1e8,
		SymbolResolve: 100 * time.Microsecond, ContextInit: 50 * time.Millisecond,
		CodeMemory: 1 << 30,
	}
}

func testStore(t *testing.T) *codeobj.Store {
	t.Helper()
	s := codeobj.NewStore()
	for _, spec := range []struct {
		path string
		ks   []codeobj.KernelSpec
	}{
		{"conv_a.pko", []codeobj.KernelSpec{
			{Name: "conv_a_main", Pattern: "Winograd", CodeSize: 100000},
			{Name: "conv_a_xform", Pattern: "Winograd", CodeSize: 20000},
		}},
		{"conv_b.pko", []codeobj.KernelSpec{
			{Name: "conv_b_main", Pattern: "GEMM", CodeSize: 50000},
		}},
	} {
		if err := s.PutBuilt(spec.path, "gfx908", spec.ks); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func newTestRuntime(t *testing.T) (*sim.Env, *backend.Registry) {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, testProfile())
	rt := NewRuntime(env, gpu, device.DefaultHost(), testStore(t))
	return env, rt
}

func runHost(t *testing.T, env *sim.Env, rt *backend.Registry, fn func(p *sim.Proc)) {
	t.Helper()
	env.Spawn("host", func(p *sim.Proc) {
		defer rt.GPU().CloseAll()
		fn(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestModuleLoadChargesTime(t *testing.T) {
	env, rt := newTestRuntime(t)
	var elapsed time.Duration
	runHost(t, env, rt, func(p *sim.Proc) {
		start := p.Now()
		m, err := rt.ModuleLoad(p, "conv_a.pko")
		if err != nil {
			t.Error(err)
			return
		}
		elapsed = p.Now() - start
		if m.Path != "conv_a.pko" || m.Object.NumSymbols() != 2 {
			t.Errorf("module = %+v", m)
		}
	})
	// Expected: fixed 1ms + size/1e8 s + 2 symbols * 100us.
	size := int64(rt.Store().Size("conv_a.pko"))
	want := testProfile().LoadTime(size, 2)
	if elapsed != want {
		t.Fatalf("load took %v, want %v", elapsed, want)
	}
	st := rt.Stats()
	if st.ModuleLoads != 1 || st.BytesLoaded != size || st.LoadTimeTotal != want {
		t.Fatalf("stats = %+v", st)
	}
}

func TestModuleLoadSecondCallIsFree(t *testing.T) {
	env, rt := newTestRuntime(t)
	runHost(t, env, rt, func(p *sim.Proc) {
		rt.ModuleLoad(p, "conv_a.pko")
		before := p.Now()
		rt.ModuleLoad(p, "conv_a.pko")
		if p.Now() != before {
			t.Errorf("second load consumed %v", p.Now()-before)
		}
	})
	st := rt.Stats()
	if st.ModuleLoads != 1 || st.LoadHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentLoadsCoalesce(t *testing.T) {
	env, rt := newTestRuntime(t)
	gpuDone := make(chan struct{})
	_ = gpuDone
	var doneA, doneB time.Duration
	env.Spawn("loaderA", func(p *sim.Proc) {
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Error(err)
		}
		doneA = p.Now()
	})
	env.Spawn("loaderB", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Error(err)
		}
		doneB = p.Now()
		rt.GPU().CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if doneA != doneB {
		t.Fatalf("coalesced loads finished at different times: %v vs %v", doneA, doneB)
	}
	if rt.Stats().ModuleLoads != 1 {
		t.Fatalf("ModuleLoads = %d, want 1 (coalesced)", rt.Stats().ModuleLoads)
	}
}

func TestDistinctLoadsSerializeOnDriverLock(t *testing.T) {
	env, rt := newTestRuntime(t)
	var spans [][2]time.Duration
	rt.SetOnLoad(func(path string, start, end time.Duration, err error) {
		spans = append(spans, [2]time.Duration{start, end})
	})
	env.Spawn("loaderA", func(p *sim.Proc) {
		rt.ModuleLoad(p, "conv_a.pko")
	})
	env.Spawn("loaderB", func(p *sim.Proc) {
		rt.ModuleLoad(p, "conv_b.pko")
		rt.GPU().CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d load spans", len(spans))
	}
	// OnLoad spans include lock wait; actual driver work must not overlap:
	// second load ends no earlier than sum of both load durations.
	sizeA := int64(rt.Store().Size("conv_a.pko"))
	sizeB := int64(rt.Store().Size("conv_b.pko"))
	minEnd := testProfile().LoadTime(sizeA, 2) + testProfile().LoadTime(sizeB, 1)
	last := spans[1][1]
	if spans[0][1] > last {
		last = spans[0][1]
	}
	if last < minEnd {
		t.Fatalf("loads overlapped: last end %v < serialized %v", last, minEnd)
	}
}

func TestLoadMissingObject(t *testing.T) {
	env, rt := newTestRuntime(t)
	runHost(t, env, rt, func(p *sim.Proc) {
		start := p.Now()
		_, err := rt.ModuleLoad(p, "missing.pko")
		if err == nil {
			t.Error("expected error for missing object")
		}
		if p.Now()-start != testProfile().ModuleLoadFixed {
			t.Errorf("failed open cost %v", p.Now()-start)
		}
	})
	if rt.Stats().FailedLoads != 1 {
		t.Fatalf("FailedLoads = %d", rt.Stats().FailedLoads)
	}
}

func TestLoadCorruptObject(t *testing.T) {
	env, rt := newTestRuntime(t)
	if err := rt.Store().Corrupt("conv_b.pko", 20); err != nil {
		t.Fatal(err)
	}
	runHost(t, env, rt, func(p *sim.Proc) {
		_, err := rt.ModuleLoad(p, "conv_b.pko")
		if err == nil {
			t.Error("expected checksum error")
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("err = %v, want checksum failure", err)
		}
		if rt.Loaded("conv_b.pko") {
			t.Error("corrupt module must not be registered")
		}
	})
}

func TestLoadArchMismatch(t *testing.T) {
	env := sim.NewEnv()
	prof := testProfile()
	prof.Arch = "sm_80" // device expects CUDA arch; store has gfx908 objects
	gpu := device.NewGPU(env, prof)
	rt := NewRuntime(env, gpu, device.DefaultHost(), testStore(t))
	runHost(t, env, rt, func(p *sim.Proc) {
		_, err := rt.ModuleLoad(p, "conv_a.pko")
		if err == nil || !strings.Contains(err.Error(), "arch") {
			t.Errorf("err = %v, want arch mismatch", err)
		}
	})
}

func TestGetFunctionLazyLoads(t *testing.T) {
	env, rt := newTestRuntime(t)
	runHost(t, env, rt, func(p *sim.Proc) {
		if rt.Loaded("conv_a.pko") {
			t.Error("module should not be loaded yet (lazy)")
		}
		f, err := rt.GetFunction(p, "conv_a.pko", "conv_a_main")
		if err != nil {
			t.Error(err)
			return
		}
		if f.Name() != "conv_a_main" || f.Kernel.Pattern != "Winograd" {
			t.Errorf("function = %+v", f)
		}
		if !rt.Loaded("conv_a.pko") {
			t.Error("GetFunction must load the module")
		}
		if _, err := rt.GetFunction(p, "conv_a.pko", "nope"); err == nil {
			t.Error("expected symbol-not-found error")
		}
	})
}

func TestInitContextOnce(t *testing.T) {
	env, rt := newTestRuntime(t)
	runHost(t, env, rt, func(p *sim.Proc) {
		rt.InitContext(p)
		if p.Now() != testProfile().ContextInit {
			t.Errorf("first init took %v", p.Now())
		}
		before := p.Now()
		rt.InitContext(p)
		if p.Now() != before {
			t.Error("second init must be free")
		}
		if !rt.ContextReady() {
			t.Error("context not ready")
		}
	})
}

func TestUnloadAndPreload(t *testing.T) {
	env, rt := newTestRuntime(t)
	runHost(t, env, rt, func(p *sim.Proc) {
		if err := rt.Preload(p, []string{"conv_a.pko", "conv_b.pko"}); err != nil {
			t.Error(err)
			return
		}
		if rt.NumLoaded() != 2 {
			t.Errorf("NumLoaded = %d", rt.NumLoaded())
		}
		if rt.LoadedCodeBytes() <= 0 {
			t.Error("LoadedCodeBytes should be positive")
		}
		if !rt.Unload("conv_a.pko") || rt.Unload("conv_a.pko") {
			t.Error("Unload semantics wrong")
		}
		rt.UnloadAll()
		if rt.NumLoaded() != 0 {
			t.Errorf("NumLoaded after UnloadAll = %d", rt.NumLoaded())
		}
		// Reload after eviction pays full cost again (cold restart).
		start := p.Now()
		if _, err := rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Error(err)
		}
		if p.Now() == start {
			t.Error("reload after eviction must charge time")
		}
	})
}

func TestPreloadStopsAtError(t *testing.T) {
	env, rt := newTestRuntime(t)
	runHost(t, env, rt, func(p *sim.Proc) {
		err := rt.Preload(p, []string{"conv_a.pko", "missing.pko", "conv_b.pko"})
		if err == nil {
			t.Error("expected preload error")
		}
		if rt.Loaded("conv_b.pko") {
			t.Error("preload must stop at first error")
		}
	})
}

func TestOnLoadHookObservesFailures(t *testing.T) {
	env, rt := newTestRuntime(t)
	var sawErr bool
	rt.SetOnLoad(func(path string, start, end time.Duration, err error) {
		if err != nil {
			sawErr = true
		}
	})
	runHost(t, env, rt, func(p *sim.Proc) {
		rt.ModuleLoad(p, "missing.pko")
	})
	if !sawErr {
		t.Fatal("OnLoad did not observe the failure")
	}
}

func TestCodeMemoryPressureEvictsLRU(t *testing.T) {
	env := sim.NewEnv()
	prof := testProfile()
	// Budget fits roughly one of the two conv objects at a time.
	prof.CodeMemory = 130000
	gpu := device.NewGPU(env, prof)
	rt := NewRuntime(env, gpu, device.DefaultHost(), testStore(t))
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Error(err)
			return
		}
		// Touch conv_a so it is recently used.
		if _, err := rt.GetFunction(p, "conv_a.pko", "conv_a_main"); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(time.Millisecond)
		if _, err := rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Error(err)
			return
		}
		if rt.Loaded("conv_a.pko") {
			t.Error("conv_a should have been evicted for space")
		}
		if !rt.Loaded("conv_b.pko") {
			t.Error("conv_b must be resident after its load")
		}
	})
	if rt.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded under memory pressure")
	}
}

func TestResidentModulesSurviveEviction(t *testing.T) {
	env := sim.NewEnv()
	prof := testProfile()
	prof.CodeMemory = 200000
	gpu := device.NewGPU(env, prof)
	rt := NewRuntime(env, gpu, device.DefaultHost(), testStore(t))
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.RegisterResident(p, "conv_a.pko"); err != nil {
			t.Error(err)
			return
		}
		if _, err := rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Error(err)
			return
		}
		rt.UnloadAll()
		if !rt.Loaded("conv_a.pko") {
			t.Error("library-resident module must survive UnloadAll")
		}
		if rt.Loaded("conv_b.pko") {
			t.Error("dynamically loaded module must be dropped by UnloadAll")
		}
	})
}

func TestRegisterResidentIsCheap(t *testing.T) {
	env, rt := newTestRuntime(t)
	runHost(t, env, rt, func(p *sim.Proc) {
		start := p.Now()
		if _, err := rt.RegisterResident(p, "conv_a.pko"); err != nil {
			t.Error(err)
			return
		}
		mapCost := p.Now() - start
		if mapCost != rt.Host().ResidentMap {
			t.Errorf("resident map cost %v, want %v", mapCost, rt.Host().ResidentMap)
		}
		size := int64(rt.Store().Size("conv_a.pko"))
		if mapCost >= rt.GPU().Profile.LoadTime(size, 2) {
			t.Error("resident mapping should be far cheaper than a full load")
		}
		// Idempotent and free the second time.
		before := p.Now()
		rt.RegisterResident(p, "conv_a.pko")
		if p.Now() != before {
			t.Error("second registration must be free")
		}
	})
	if rt.Stats().ModuleLoads != 0 {
		t.Fatal("resident registration must not count as a module load")
	}
}

func TestRegisterResidentRejectsCorrupt(t *testing.T) {
	env, rt := newTestRuntime(t)
	rt.Store().Corrupt("conv_a.pko", 12)
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.RegisterResident(p, "conv_a.pko"); err == nil {
			t.Error("corrupt resident object must be rejected")
		}
		if _, err := rt.RegisterResident(p, "nope.pko"); err == nil {
			t.Error("missing resident object must be rejected")
		}
	})
}
