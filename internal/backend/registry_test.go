package backend

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

func TestModuleLoadChargesTime(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
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
		// Expected: fixed 1ms + size/1e8 s + 100us per symbol resolved at load.
		size := objSize(t, rt.Store(), "conv_a.pko")
		want := testProfile().LoadTime(size, eagerSymbols(f, 2))
		if elapsed != want {
			t.Fatalf("load took %v, want %v", elapsed, want)
		}
		st := rt.Stats()
		if st.ModuleLoads != 1 || st.BytesLoaded != size || st.LoadTimeTotal != want {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestModuleLoadSecondCallIsFree(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		runHost(t, env, rt, func(p *sim.Proc) {
			rt.ModuleLoad(p, "conv_a.pko")
			before := p.Now()
			rt.ModuleLoad(p, "conv_a.pko")
			if p.Now() != before {
				t.Errorf("second load consumed %v", p.Now()-before)
			}
		})
		if st, ts := rt.Stats(), rt.TenantStats(); st.ModuleLoads != 1 || ts.SharedHits != 1 {
			t.Fatalf("stats = %+v, root view %+v", st, ts)
		}
	})
}

func TestConcurrentLoadsCoalesce(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
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
	})
}

func TestDistinctLoadsSerializeOnDriverLock(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
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
		// OnLoad spans include lock wait; actual driver work must not
		// overlap: second load ends no earlier than sum of both load
		// durations.
		sizeA := objSize(t, rt.Store(), "conv_a.pko")
		sizeB := objSize(t, rt.Store(), "conv_b.pko")
		minEnd := testProfile().LoadTime(sizeA, eagerSymbols(f, 2)) + testProfile().LoadTime(sizeB, eagerSymbols(f, 1))
		last := max(spans[0][1], spans[1][1])
		if last < minEnd {
			t.Fatalf("loads overlapped: last end %v < serialized %v", last, minEnd)
		}
	})
}

func TestLoadMissingObject(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
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
	})
}

func TestLoadCorruptObject(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		if err := corrupt(rt.Store(), "conv_b.pko", 20); err != nil {
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
	})
}

func TestLoadArchMismatch(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		prof := testProfile()
		prof.Arch = "sm_80" // device expects CUDA arch; store has gfx908 objects
		env, rt := newRuntimeOn(t, f, prof)
		runHost(t, env, rt, func(p *sim.Proc) {
			_, err := rt.ModuleLoad(p, "conv_a.pko")
			if err == nil || !strings.Contains(err.Error(), "arch") {
				t.Errorf("err = %v, want arch mismatch", err)
			}
		})
	})
}

func TestGetFunctionLazyLoads(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		runHost(t, env, rt, func(p *sim.Proc) {
			if rt.Loaded("conv_a.pko") {
				t.Error("module should not be loaded yet (lazy)")
			}
			fn, err := rt.GetFunction(p, "conv_a.pko", "conv_a_main")
			if err != nil {
				t.Error(err)
				return
			}
			if fn.Name() != "conv_a_main" || fn.Kernel.Pattern != "Winograd" {
				t.Errorf("function = %+v", fn)
			}
			if !rt.Loaded("conv_a.pko") {
				t.Error("GetFunction must load the module")
			}
			if _, err := rt.GetFunction(p, "conv_a.pko", "nope"); err == nil {
				t.Error("expected symbol-not-found error")
			}
		})
	})
}

func TestInitContextOnce(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
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
			if !rt.sh.ctxReady {
				t.Error("context not ready")
			}
		})
	})
}

func TestUnloadAndPreload(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		runHost(t, env, rt, func(p *sim.Proc) {
			if err := rt.Preload(p, []string{"conv_a.pko", "conv_b.pko"}); err != nil {
				t.Error(err)
				return
			}
			if n := len(rt.sh.modules); n != 2 {
				t.Errorf("resident modules = %d", n)
			}
			if rt.LoadedCodeBytes() <= 0 {
				t.Error("LoadedCodeBytes should be positive")
			}
			if !rt.Unload("conv_a.pko") || rt.Unload("conv_a.pko") {
				t.Error("Unload semantics wrong")
			}
			rt.UnloadAll()
			if n := len(rt.sh.modules); n != 0 {
				t.Errorf("resident modules after UnloadAll = %d", n)
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
	})
}

func TestPreloadStopsAtError(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		runHost(t, env, rt, func(p *sim.Proc) {
			err := rt.Preload(p, []string{"conv_a.pko", "missing.pko", "conv_b.pko"})
			if err == nil {
				t.Error("expected preload error")
			}
			if rt.Loaded("conv_b.pko") {
				t.Error("preload must stop at first error")
			}
		})
	})
}

func TestOnLoadHookObservesFailures(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
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
	})
}

func TestCodeMemoryPressureEvictsLRU(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		prof := testProfile()
		// Budget fits roughly one of the two conv objects at a time.
		prof.CodeMemory = 130000
		env, rt := newRuntimeOn(t, f, prof)
		evicted := &evictLog{}
		rt.SetObserver(evicted)
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
		if len(evicted.victims) == 0 {
			t.Fatal("no evictions recorded under memory pressure")
		}
	})
}

func TestResidentModulesSurviveEviction(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		prof := testProfile()
		prof.CodeMemory = 200000
		env, rt := newRuntimeOn(t, f, prof)
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
	})
}

func TestRegisterResidentIsCheap(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
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
			size := objSize(t, rt.Store(), "conv_a.pko")
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
	})
}

func TestRegisterResidentRejectsCorrupt(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		if err := corrupt(rt.Store(), "conv_a.pko", 12); err != nil {
			t.Fatal(err)
		}
		runHost(t, env, rt, func(p *sim.Proc) {
			if _, err := rt.RegisterResident(p, "conv_a.pko"); err == nil {
				t.Error("corrupt resident object must be rejected")
			}
			if _, err := rt.RegisterResident(p, "nope.pko"); err == nil {
				t.Error("missing resident object must be rejected")
			}
		})
	})
}

// flakyStore fails the first n reads of each path with a transient error.
type flakyStore struct {
	noFaults
	failsLeft map[string]int
}

func (h *flakyStore) StoreGet(path string, data []byte) ([]byte, error) {
	if h.failsLeft[path] > 0 {
		h.failsLeft[path]--
		return nil, codeobj.ErrIO
	}
	return data, nil
}

// corruptStore serves damaged copies of one path forever.
type corruptStore struct {
	noFaults
	path string
}

func (h *corruptStore) StoreGet(path string, data []byte) ([]byte, error) {
	if path != h.path {
		return data, nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	cp[len(cp)/2] ^= 0xff
	return cp, nil
}

// spikeOnce injects one latency spike on the first load of each path.
type spikeOnce struct {
	noFaults
	extra time.Duration
	seen  map[string]bool
}

func (h *spikeOnce) ExtraLoadLatency(_ time.Duration, path string) time.Duration {
	if h.seen == nil {
		h.seen = make(map[string]bool)
	}
	if h.seen[path] {
		return 0
	}
	h.seen[path] = true
	return h.extra
}

func TestModuleLoadRetriesTransientErrors(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_a.pko": 2}})
		runHost(t, env, rt, func(p *sim.Proc) {
			m, err := rt.ModuleLoad(p, "conv_a.pko")
			if err != nil {
				t.Errorf("load after transient faults: %v", err)
				return
			}
			if m == nil || m.Path != "conv_a.pko" {
				t.Errorf("module = %+v", m)
			}
		})
		st := rt.Stats()
		if st.TransientRetries != 2 {
			t.Errorf("TransientRetries = %d, want 2", st.TransientRetries)
		}
		if st.ModuleLoads != 1 || st.FailedLoads != 0 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestModuleLoadExhaustedRetriesNotNegativelyCached(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		// Each call makes MaxRetries+1 attempts: two calls' worth of
		// failures plus two more, so the third call succeeds on its third
		// attempt.
		attempts := f.Retry().MaxRetries + 1
		rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_a.pko": 2*attempts + 2}})
		runHost(t, env, rt, func(p *sim.Proc) {
			if _, err := rt.ModuleLoad(p, "conv_a.pko"); !IsTransient(err) {
				t.Errorf("exhausted-retry error = %v, want transient", err)
			}
			if negCached(rt, "conv_a.pko") {
				t.Error("transient failure was negatively cached")
			}
			if _, err := rt.ModuleLoad(p, "conv_a.pko"); !IsTransient(err) {
				t.Errorf("second call error = %v, want transient", err)
			}
			if m, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil || m == nil {
				t.Errorf("third call should recover, got %v", err)
			}
		})
		if st := rt.Stats(); st.NegativeHits != 0 {
			t.Errorf("NegativeHits = %d, want 0", st.NegativeHits)
		}
	})
}

func TestPermanentFailureNegativelyCached(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		rt.SetFaults(&corruptStore{path: "conv_a.pko"})
		var firstErr, secondErr error
		var secondCost time.Duration
		runHost(t, env, rt, func(p *sim.Proc) {
			_, firstErr = rt.ModuleLoad(p, "conv_a.pko")
			start := p.Now()
			_, secondErr = rt.ModuleLoad(p, "conv_a.pko")
			secondCost = p.Now() - start
		})
		if firstErr == nil || !errors.Is(firstErr, codeobj.ErrChecksum) {
			t.Fatalf("first error = %v, want checksum failure", firstErr)
		}
		if secondErr != firstErr {
			t.Errorf("second error = %v, want cached %v", secondErr, firstErr)
		}
		if secondCost != 0 {
			t.Errorf("negative-cache hit cost %v, want 0", secondCost)
		}
		st := rt.Stats()
		if st.PermanentFailures != 1 || st.NegativeHits != 1 || st.FailedLoads != 1 {
			t.Errorf("stats = %+v", st)
		}
		if !negCached(rt, "conv_a.pko") {
			t.Error("conv_a.pko not negatively cached")
		}
	})
}

// The retry loop's cost is the flavor's backoff schedule: a load whose
// reads fail exactly MaxRetries times succeeds after paying one failed open
// per fault, each backoff and the clean load; one more fault fails the load
// as transient after the same sleeps.
func TestTransientRetryCostsBackoffTime(t *testing.T) {
	// Doubling from Backoff.
	schedules := map[string]struct {
		retries int
		backoff time.Duration
	}{
		"hip":  {3, (200 + 400 + 800) * time.Microsecond},
		"cuda": {2, (100 + 200) * time.Microsecond},
	}
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		want := schedules[f.Driver()]
		prof := testProfile()
		for _, faults := range []int{want.retries, want.retries + 1} {
			env, rt := newTestRuntime(t, f)
			rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_b.pko": faults}})
			var elapsed time.Duration
			var err error
			runHost(t, env, rt, func(p *sim.Proc) {
				start := p.Now()
				_, err = rt.ModuleLoad(p, "conv_b.pko")
				elapsed = p.Now() - start
			})
			wantTime := time.Duration(min(faults, want.retries+1))*prof.ModuleLoadFixed + want.backoff
			if faults == want.retries {
				if err != nil {
					t.Fatalf("%d faults: %v", faults, err)
				}
				wantTime += prof.LoadTime(objSize(t, rt.Store(), "conv_b.pko"), eagerSymbols(f, 1))
			} else if !IsTransient(err) {
				t.Fatalf("%d faults: err = %v, want transient", faults, err)
			}
			if elapsed != wantTime {
				t.Errorf("%d faults: elapsed = %v, want %v", faults, elapsed, wantTime)
			}
			if st := rt.Stats(); st.TransientRetries != want.retries {
				t.Errorf("%d faults: TransientRetries = %d, want %d", faults, st.TransientRetries, want.retries)
			}
		}
	})
}

func TestLatencySpikeCharged(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		const extra = 5 * time.Millisecond
		rt.SetFaults(&spikeOnce{extra: extra})
		var first, second time.Duration
		runHost(t, env, rt, func(p *sim.Proc) {
			start := p.Now()
			if _, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil {
				t.Error(err)
				return
			}
			first = p.Now() - start
			rt.Unload("conv_a.pko")
			start = p.Now()
			if _, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil {
				t.Error(err)
				return
			}
			second = p.Now() - start
		})
		if first-second != extra {
			t.Errorf("spiked load %v vs clean load %v: delta %v, want %v", first, second, first-second, extra)
		}
	})
}

func TestRegisterResidentRetriesTransient(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_a.pko": 2}})
		runHost(t, env, rt, func(p *sim.Proc) {
			if _, err := rt.RegisterResident(p, "conv_a.pko"); err != nil {
				t.Errorf("RegisterResident after transient faults: %v", err)
			}
		})
		if st := rt.Stats(); st.TransientRetries != 2 {
			t.Errorf("TransientRetries = %d, want 2", st.TransientRetries)
		}
	})
}

// retryLog records the paths of the registry's "transient_retry" events.
type retryLog struct{ paths []string }

func (l *retryLog) RegistryEvent(kind, path string, _ time.Duration) {
	if kind == "transient_retry" {
		l.paths = append(l.paths, path)
	}
}
func (l *retryLog) RegistrySample(string, time.Duration, float64) {}

// Resident-map retries go through the same loop as module loads, so the
// registry observer (a trace's "registry" track) sees each one as a
// "transient_retry" event — as many as Stats.TransientRetries counts, on
// the failing path.
func TestRegisterResidentRetriesTraced(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		log := &retryLog{}
		rt.SetObserver(log)
		rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_a.pko": 2}})
		runHost(t, env, rt, func(p *sim.Proc) {
			if _, err := rt.RegisterResident(p, "conv_a.pko"); err != nil {
				t.Errorf("RegisterResident after transient faults: %v", err)
			}
		})
		retries := len(log.paths)
		for _, path := range log.paths {
			if path != "conv_a.pko" {
				t.Errorf("transient_retry for %s, want conv_a.pko", path)
			}
		}
		if st := rt.Stats(); st.TransientRetries != 2 || retries != st.TransientRetries {
			t.Errorf("%d transient_retry instants, TransientRetries = %d; want 2 of each", retries, st.TransientRetries)
		}
	})
}

func TestDeviceResetKeepsNegativeCache(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		rt.SetFaults(&corruptStore{path: "conv_a.pko"})
		runHost(t, env, rt, func(p *sim.Proc) {
			if _, err := rt.ModuleLoad(p, "conv_a.pko"); err == nil {
				t.Error("corrupt load unexpectedly succeeded")
			}
			rt.UnloadAll()
			// A reset clears modules, not the on-disk corruption.
			if !negCached(rt, "conv_a.pko") {
				t.Error("reset dropped the negative cache")
			}
		})
	})
}

// Multi-tenant sharing: views created with Attach alias one module registry,
// coalesce loads, pin what they reference and release the pins on Detach.

func TestTenantSharesModulesAcrossViews(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		a := rt.Attach("alpha")
		b := rt.Attach("beta")
		runHost(t, env, rt, func(p *sim.Proc) {
			if _, err := a.ModuleLoad(p, "conv_a.pko"); err != nil {
				t.Fatal(err)
			}
			before := p.Now()
			if _, err := b.ModuleLoad(p, "conv_a.pko"); err != nil {
				t.Fatal(err)
			}
			if p.Now() != before {
				t.Errorf("second tenant's load of a shared module consumed %v", p.Now()-before)
			}
		})
		if st := rt.Stats(); st.ModuleLoads != 1 {
			t.Fatalf("shared stats = %+v", st)
		}
		if ts := a.TenantStats(); ts.Loads != 1 || ts.SharedHits != 0 || ts.Pinned != 1 {
			t.Fatalf("alpha stats = %+v", ts)
		}
		if ts := b.TenantStats(); ts.Loads != 0 || ts.SharedHits != 1 || ts.Pinned != 1 {
			t.Fatalf("beta stats = %+v", ts)
		}
		if n := rt.sh.refs["conv_a.pko"]; n != 2 {
			t.Fatalf("refs = %d, want 2", n)
		}
	})
}

func TestTenantConcurrentLoadsCoalesceAcrossViews(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		a := rt.Attach("alpha")
		b := rt.Attach("beta")
		env.Spawn("tenantA", func(p *sim.Proc) {
			if _, err := a.ModuleLoad(p, "conv_a.pko"); err != nil {
				t.Error(err)
			}
		})
		env.Spawn("tenantB", func(p *sim.Proc) {
			p.Sleep(time.Microsecond) // arrive while A's load is in flight
			defer rt.GPU().CloseAll()
			if _, err := b.ModuleLoad(p, "conv_a.pko"); err != nil {
				t.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		st := rt.Stats()
		if st.ModuleLoads != 1 {
			t.Fatalf("same .pko loaded %d times, want exactly 1 (stats %+v)", st.ModuleLoads, st)
		}
		if ts := a.TenantStats(); ts.Loads != 1 || ts.CoalescedWaits != 0 {
			t.Fatalf("alpha stats = %+v", ts)
		}
		if ts := b.TenantStats(); ts.Loads != 0 || ts.CoalescedWaits != 1 || ts.Pinned != 1 {
			t.Fatalf("beta stats = %+v", ts)
		}
	})
}

func TestTenantPinBlocksEviction(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env := sim.NewEnv()
		store := testStore(t)
		prof := testProfile()
		// Budget fits either object alone but not both: loading the second
		// forces the evictor to look for a victim.
		sizeA := objSize(t, store, "conv_a.pko")
		sizeB := objSize(t, store, "conv_b.pko")
		prof.CodeMemory = sizeA + sizeB - 1
		rt := New(env, device.NewGPU(env, prof), device.DefaultHost(), store, f)
		evicted := &evictLog{}
		rt.SetObserver(evicted)
		a := rt.Attach("alpha")
		runHost(t, env, rt, func(p *sim.Proc) {
			if _, err := a.ModuleLoad(p, "conv_a.pko"); err != nil {
				t.Fatal(err)
			}
			// The root view does not pin, so its load must not evict
			// alpha's module even under pressure: the budget overshoots
			// instead.
			if _, err := rt.ModuleLoad(p, "conv_b.pko"); err != nil {
				t.Fatal(err)
			}
			if !rt.Loaded("conv_a.pko") {
				t.Fatal("pinned module was evicted under memory pressure")
			}
			if len(evicted.victims) != 0 {
				t.Fatalf("evicted %v, want none", evicted.victims)
			}
			// After the pinning tenant detaches its module becomes a victim.
			a.Detach()
			rt.Unload("conv_b.pko")
			if _, err := rt.ModuleLoad(p, "conv_b.pko"); err != nil {
				t.Fatal(err)
			}
			if rt.Loaded("conv_a.pko") {
				t.Fatal("detached tenant's module survived eviction pressure")
			}
			if !slices.Equal(evicted.victims, []string{"conv_a.pko"}) {
				t.Fatalf("evicted %v, want [conv_a.pko]", evicted.victims)
			}
		})
	})
}

func TestTenantDetachIsIdempotent(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		a := rt.Attach("alpha")
		b := rt.Attach("beta")
		runHost(t, env, rt, func(p *sim.Proc) {
			a.ModuleLoad(p, "conv_a.pko")
			b.ModuleLoad(p, "conv_a.pko")
		})
		a.Detach()
		a.Detach()
		if got := rt.sh.refs["conv_a.pko"]; got != 1 {
			t.Fatalf("refs after double detach = %d, want 1 (beta's)", got)
		}
		if !a.detached || b.detached {
			t.Fatalf("detached flags: a=%v b=%v", a.detached, b.detached)
		}
		b.Detach()
		if got := rt.sh.refs["conv_a.pko"]; got != 0 {
			t.Fatalf("refs after both detach = %d, want 0", got)
		}
		if !rt.Loaded("conv_a.pko") {
			t.Fatal("detach must not unload the module")
		}
	})
}

func TestClearFailuresEmptiesNegativeCache(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		runHost(t, env, rt, func(p *sim.Proc) {
			if _, err := rt.ModuleLoad(p, "missing.pko"); err == nil {
				t.Fatal("expected load failure")
			}
			if !negCached(rt, "missing.pko") {
				t.Fatal("missing object should be negatively cached")
			}
			if n := rt.ClearFailures(); n != 1 {
				t.Fatalf("ClearFailures = %d, want 1", n)
			}
			if negCached(rt, "missing.pko") {
				t.Fatal("negative cache entry survived ClearFailures")
			}
		})
	})
}

func TestTenantSkipsContextInitAndResidentMap(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		a := rt.Attach("alpha")
		b := rt.Attach("beta")
		runHost(t, env, rt, func(p *sim.Proc) {
			a.InitContext(p)
			if _, err := a.RegisterResident(p, "conv_b.pko"); err != nil {
				t.Fatal(err)
			}
			before := p.Now()
			b.InitContext(p)
			if _, err := b.RegisterResident(p, "conv_b.pko"); err != nil {
				t.Fatal(err)
			}
			if p.Now() != before {
				t.Errorf("second tenant paid %v for context+resident map, want 0", p.Now()-before)
			}
		})
		if n := rt.sh.refs["conv_b.pko"]; n != 2 {
			t.Fatalf("resident refs = %d, want 2", n)
		}
	})
}
