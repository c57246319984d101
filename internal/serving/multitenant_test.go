package serving

import (
	"testing"

	"pask/internal/backend"
	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/sim"
)

// The tentpole acceptance check: under the same deterministic interleaved
// trace, the second tenant's first cold start on a shared runtime is
// strictly lower than on an isolated one, the total module loads shrink, and
// the code-object store is byte-identical across both arms.
func TestMultitenantSharedImprovesSecondTenant(t *testing.T) {
	out, err := Multitenant(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Bench.(*MultitenantResult)
	if !res.StoreUntouched() {
		t.Fatalf("store fingerprints diverged: %08x %08x %08x",
			res.FingerprintBefore, res.FingerprintBetween, res.FingerprintAfter)
	}
	second := res.Models[1]
	iso, sh := firstCold(res.Isolated, second), firstCold(res.Shared, second)
	if iso == 0 || sh == 0 {
		t.Fatalf("missing cold starts for %s: iso=%v shared=%v", second, iso, sh)
	}
	if sh >= iso {
		t.Fatalf("second tenant %s cold start not improved: shared %v vs isolated %v", second, sh, iso)
	}
	if res.Shared.ModuleLoads >= res.Isolated.ModuleLoads {
		t.Fatalf("shared arm loaded %d modules, isolated %d: sharing saved nothing",
			res.Shared.ModuleLoads, res.Isolated.ModuleLoads)
	}
	// Attribution covers every spawned tenant plus the root view.
	if len(res.Shared.TenantLoads) != res.Shared.Spawned+1 {
		t.Fatalf("tenant attribution rows = %d, want %d", len(res.Shared.TenantLoads), res.Shared.Spawned+1)
	}
}

// Two tenants cold-starting the same model at the same instant on a shared
// runtime coalesce onto single loads: each distinct .pko is loaded exactly
// once, and the laggard tenant records coalesced waits instead of loads.
func TestScaleOutSharedCoalescesSameModel(t *testing.T) {
	setups := setupSharedModels(t, "alex")
	cfg := FleetConfig{Policy: Policy{Scheme: core.SchemePaSK}}
	iso, err := ServeFleetModels(setups, "alex", cfg, BurstTrace(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shared = true
	sh, err := ServeFleetModels(setups, "alex", cfg, BurstTrace(2))
	if err != nil {
		t.Fatal(err)
	}
	if 2*sh.ModuleLoads != iso.ModuleLoads {
		t.Fatalf("shared loads %d, isolated %d: each object must load exactly once shared",
			sh.ModuleLoads, iso.ModuleLoads)
	}
	coalesced, shared := 0, 0
	for _, ts := range sh.TenantLoads {
		coalesced += ts.CoalescedWaits
		shared += ts.SharedHits
	}
	if coalesced == 0 {
		t.Fatal("no coalesced waits: concurrent identical loads were not deduplicated")
	}
	if shared == 0 {
		t.Fatal("no shared hits recorded")
	}
}

// Crash recovery on a shared GPU replaces one tenant without touching the
// survivors: the dead view detaches, the negative cache clears, and every
// module a surviving tenant holds stays resident and referenced.
func TestReplaceTenantPreservesSurvivorModules(t *testing.T) {
	setups := setupSharedModels(t, "res", "vgg")
	env := sim.NewEnv()
	host := NewGPUHost(backend.New(env, device.NewGPU(env, setups["res"].Profile), device.DefaultHost(), setups["res"].Store, backend.HIP))
	var stats Stats
	pol := Policy{Scheme: core.SchemePaSK}
	a := newInstance(env, host, setups["res"], pol, &stats, "res/0")
	b := newInstance(env, host, setups["vgg"], pol, &stats, "vgg/0")
	env.Spawn("driver", func(p *sim.Proc) {
		defer host.Close()
		if _, err := a.serve(p, 0); err != nil {
			t.Errorf("tenant a serve: %v", err)
			return
		}
		if _, err := b.serve(p, 1); err != nil {
			t.Errorf("tenant b serve: %v", err)
			return
		}
		pinnedA := a.pr.RT.TenantStats().Pinned
		if pinnedA == 0 {
			t.Error("survivor holds no pinned modules")
			return
		}
		// Detached views stay on the runtime's roster for stats attribution,
		// so a replacement adds one view rather than swapping in place.
		views := len(host.Root().AllTenantStats())
		resident := host.Root().LoadedCodeBytes()
		b.replace()
		if got := len(host.Root().AllTenantStats()); got != views+1 {
			t.Errorf("views = %d after replace, want %d", got, views+1)
		}
		if got := host.Root().LoadedCodeBytes(); got != resident {
			t.Errorf("tenant replacement dropped modules: resident bytes %d -> %d", resident, got)
		}
		if got := a.pr.RT.TenantStats().Pinned; got != pinnedA {
			t.Errorf("survivor pins %d modules after replace, want %d", got, pinnedA)
		}
		if b.view() != "vgg/0#1" {
			t.Errorf("replacement view = %q, want generation suffix", b.view())
		}
		// The replacement serves — warm, since the dead tenant's modules are
		// still resident on the shared GPU.
		if _, err := b.serve(p, 2); err != nil {
			t.Errorf("replacement serve: %v", err)
		}
		a.close()
		b.close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
