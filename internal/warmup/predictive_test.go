package warmup

import (
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// predictiveFixture builds a store with n objects per model and the
// matching manifests.
func predictiveFixture(t *testing.T, models []string, n int) (*codeobj.Store, map[string]*Manifest) {
	t.Helper()
	store := codeobj.NewStore()
	manifests := make(map[string]*Manifest)
	for _, m := range models {
		man := &Manifest{Version: Version, Model: m}
		for i := 0; i < n; i++ {
			path := m + "_" + string(rune('a'+i)) + ".pko"
			data := buildObject(t, m+"_obj"+string(rune('a'+i)))
			store.Put(path, data)
			man.Entries = append(man.Entries, Entry{Path: path, Checksum: Checksum(data), Bytes: len(data)})
		}
		manifests[m] = man
	}
	return store, manifests
}

// TestPredictivePrefetch checks the core loop: predicted models' objects
// become resident cross-tenant, unpredicted ones stay cold, the view
// detaches (no pins), and Account classifies hits, misses and waste on the
// shared warmup_prefetch_* scheme.
func TestPredictivePrefetch(t *testing.T) {
	env := sim.NewEnv()
	store, manifests := predictiveFixture(t, []string{"alex", "res", "vgg"}, 2)
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)

	pf := StartPredictive(env, rt, manifests, 48, nil)
	env.Spawn("driver", func(p *sim.Proc) {
		pf.Prefetch("alex")
		p.Sleep(time.Millisecond)
		pf.Prefetch("res", "res", "nosuchmodel") // dedup + unknown model
		p.Sleep(time.Millisecond)
		pf.Close()
		pf.Wait(p)
		gpu.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"alex_a.pko", "alex_b.pko", "res_a.pko", "res_b.pko"} {
		if !rt.Loaded(path) {
			t.Fatalf("%s not resident after prediction", path)
		}
	}
	for _, ts := range rt.AllTenantStats() {
		if ts.Pinned != 0 {
			t.Fatalf("view %q left %d pins", ts.Tenant, ts.Pinned)
		}
	}
	if rt.Loaded("vgg_a.pko") {
		t.Fatal("unpredicted model loaded")
	}
	st := pf.Stats()
	if st.Loaded != 4 {
		t.Fatalf("loaded = %d, want 4: %+v", st.Loaded, st)
	}
	// The run used one alex object and one vgg object: one hit, one miss,
	// three wasted predictions (the other alex object and both res objects).
	got := pf.Account([]string{"alex_a.pko", "vgg_a.pko"}, env.Now())
	if got.Hits != 1 || got.Misses != 1 || got.Wasted != 3 {
		t.Fatalf("accounting: %+v", got)
	}
}

// TestPredictiveBudget pins the budget cap: entries beyond the budget are
// never attempted and the prefetcher counts the spend.
func TestPredictiveBudget(t *testing.T) {
	env := sim.NewEnv()
	store, manifests := predictiveFixture(t, []string{"alex", "res"}, 3)
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)

	pf := StartPredictive(env, rt, manifests, 4, nil)
	env.Spawn("driver", func(p *sim.Proc) {
		pf.Prefetch("alex", "res")
		pf.Close()
		pf.Wait(p)
		gpu.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if entries := pf.spent; entries != 4 {
		t.Fatalf("spent %d entries, want exactly 4", entries)
	}
	if st := pf.Stats(); st.Loaded != 4 {
		t.Fatalf("loaded %d, want 4 (budget)", st.Loaded)
	}
	if rt.Loaded("res_b.pko") || rt.Loaded("res_c.pko") {
		t.Fatal("loads continued past the budget")
	}
}

// TestPredictiveResidentIsFree already-resident objects must not consume
// budget: prediction only pays for new residency.
func TestPredictiveResidentIsFree(t *testing.T) {
	env := sim.NewEnv()
	store, manifests := predictiveFixture(t, []string{"alex"}, 2)
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)

	env.Spawn("warm", func(p *sim.Proc) {
		rt.InitContext(p)
		if _, err := rt.ModuleLoad(p, "alex_a.pko"); err != nil {
			t.Errorf("preload: %v", err)
		}
		pf := StartPredictive(env, rt, manifests, 10, nil)
		pf.Prefetch("alex")
		pf.Close()
		pf.Wait(p)
		if entries := pf.spent; entries != 1 {
			t.Errorf("spent %d entries, want 1 (resident object is free)", entries)
		}
		gpu.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
