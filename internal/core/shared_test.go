package core

import (
	"testing"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/miopen"
	"pask/internal/sim"
)

// withLoadedProc is withProc with the given instances materialized in the
// store and loaded into the runtime before fn runs, so shared-view queries
// (which verify residency) can hit them.
func withLoadedProc(t *testing.T, reg *miopen.Registry, loaded []miopen.Instance, fn func(p *sim.Proc, lib *miopen.Library)) {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	store := codeobj.NewStore()
	objs := store.Batch()
	miopen.MaterializeObjects(objs, device.MI100().Arch, loaded)
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)
	lib := miopen.NewLibrary(reg, rt)
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		for _, inst := range loaded {
			if err := lib.EnsureLoaded(p, inst); err != nil {
				t.Error(err)
				return
			}
		}
		fn(p, lib)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedCacheCrossTenantHit(t *testing.T) {
	gen, mid, spec, reg, prob := testInstances(t)
	_ = gen
	withLoadedProc(t, reg, []miopen.Instance{mid}, func(p *sim.Proc, lib *miopen.Library) {
		sc := NewSharedCache()
		a := sc.View()
		b := sc.View()
		a.Insert(mid) // tenant alpha loaded the mid-tier solution
		// Tenant beta, serving a different model, wants the specialist but
		// finds alpha's loaded instance through the shared cache.
		sub, ok := b.GetSub(p, lib, spec, lib.Reg.Intern(&prob))
		if !ok {
			t.Fatal("expected cross-tenant hit")
		}
		if sub.Path() != mid.Path() {
			t.Fatalf("got %s, want alpha's %s", sub.Path(), mid.Path())
		}
		// Attribution: the insert is alpha's, the query/hit is beta's, the
		// aggregate sees both.
		if st := a.Stats(); st.Inserts != 1 || st.Queries != 0 || st.Hits != 0 {
			t.Fatalf("alpha stats = %+v", st)
		}
		if st := b.Stats(); st.Inserts != 0 || st.Queries != 1 || st.Hits != 1 || st.Lookups != 1 {
			t.Fatalf("beta stats = %+v", st)
		}
		if st := sc.inner.Stats(); st.Inserts != 1 || st.Queries != 1 || st.Hits != 1 {
			t.Fatalf("aggregate stats = %+v", st)
		}
	})
}

func TestSharedCacheViewSkipsEvictedEntries(t *testing.T) {
	_, mid, spec, reg, prob := testInstances(t)
	withLoadedProc(t, reg, []miopen.Instance{mid}, func(p *sim.Proc, lib *miopen.Library) {
		sc := NewSharedCache()
		v := sc.View()
		v.Insert(mid)
		// Another tenant's memory pressure evicts the module after
		// insertion: the shared view must skip the stale entry without
		// charging an applicability check.
		lib.RT.Unload(mid.Path())
		if _, ok := v.GetSub(p, lib, spec, lib.Reg.Intern(&prob)); ok {
			t.Fatal("shared view returned a substitute whose module is gone")
		}
		if st := v.Stats(); st.Lookups != 0 {
			t.Fatalf("stale candidate charged %d applicability checks, want 0", st.Lookups)
		}
		// The entry is not deleted — a reload makes it visible again.
		if err := lib.EnsureLoaded(p, mid); err != nil {
			t.Fatal(err)
		}
		if _, ok := v.GetSub(p, lib, spec, lib.Reg.Intern(&prob)); !ok {
			t.Fatal("reloaded entry should hit again")
		}
	})
}

func TestSharedCacheRecencySharedAcrossViews(t *testing.T) {
	gen, mid, spec, reg, prob := testInstances(t)
	withLoadedProc(t, reg, []miopen.Instance{gen, mid}, func(p *sim.Proc, lib *miopen.Library) {
		sc := NewSharedCache()
		a := sc.View()
		b := sc.View()
		a.Insert(gen)
		a.Insert(mid) // shared MRU order: [mid, gen]
		// While mid's module is out, beta's query skips it and hits gen,
		// promoting gen to MRU in the one shared structure.
		lib.RT.Unload(mid.Path())
		if sub, ok := b.GetSub(p, lib, spec, lib.Reg.Intern(&prob)); !ok || sub.Path() != gen.Path() {
			t.Fatalf("beta GetSub = %v %v", sub.Path(), ok)
		}
		if err := lib.EnsureLoaded(p, mid); err != nil {
			t.Fatal(err)
		}
		// Alpha now sees beta's promotion: gen answers first even though
		// alpha last touched mid — recency is a shared, cross-tenant
		// property, not per view.
		if sub, ok := a.GetSub(p, lib, spec, lib.Reg.Intern(&prob)); !ok || sub.Path() != gen.Path() {
			t.Fatalf("alpha GetSub = %v %v, want beta-promoted generic", sub.Path(), ok)
		}
	})
}
