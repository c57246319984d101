package backend

import (
	"testing"

	"pask/internal/sim"
)

// TestLoadedCodeBytesCounterStaysConsistent churns the registry through
// load, forced unload, reset and eviction-pressure cycles and asserts the
// O(1) LoadedCodeBytes counter always equals a fresh walk of the resident
// modules.
func TestLoadedCodeBytesCounterStaysConsistent(t *testing.T) {
	const nObjs = 16
	store := benchStore(t, nObjs, 8<<10)
	// Budget ~5 containers so loads beyond that evict.
	env, gpu, rt := benchRuntime(store, 50<<10)
	evicted := &evictLog{}
	rt.SetObserver(evicted)

	recompute := func() int64 {
		var n int64
		for _, m := range rt.sh.modules {
			n += int64(m.Object.Size())
		}
		return n
	}
	check := func(stage string) {
		if got, want := rt.LoadedCodeBytes(), recompute(); got != want {
			t.Fatalf("%s: LoadedCodeBytes = %d, recomputed %d", stage, got, want)
		}
	}

	env.Spawn("churn", func(p *sim.Proc) {
		defer gpu.CloseAll()
		for i := 0; i < nObjs; i++ {
			if _, err := rt.ModuleLoad(p, benchPath(i)); err != nil {
				t.Errorf("load %d: %v", i, err)
				return
			}
			check("load")
		}
		rt.Unload(benchPath(nObjs - 1))
		check("unload")
		rt.UnloadAll()
		check("reset")
		if _, err := rt.RegisterResident(p, benchPath(0)); err != nil {
			t.Errorf("register resident: %v", err)
			return
		}
		check("resident")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(evicted.victims) == 0 {
		t.Fatal("expected eviction pressure during churn")
	}
}
