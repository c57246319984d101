package serving

import (
	"fmt"
	"strings"
	"time"

	"pask/internal/backend"
	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
)

// multitenantKeepAlive is the fleet keep-alive: long enough that no
// instance is reaped mid-trace.
const multitenantKeepAlive = time.Second

// multitenantSchedule returns each tenant's request count and the fixed
// inter-arrival gap.
func multitenantSchedule(quick bool) (perTenant int, interval time.Duration) {
	if quick {
		return 2, 4 * time.Millisecond
	}
	return 4, 2 * time.Millisecond
}

// MultitenantResult carries the raw outcomes of both arms plus the store
// fingerprints proving the comparison ran against byte-identical state.
type MultitenantResult struct {
	Models   []string
	Isolated *FleetStats
	Shared   *FleetStats

	// Store fingerprints taken before the isolated arm, between the arms
	// and after the shared arm. All three must be equal: serving must never
	// mutate the code-object store, and both arms must read the same bytes.
	FingerprintBefore  uint32
	FingerprintBetween uint32
	FingerprintAfter   uint32
}

// StoreUntouched reports whether all three fingerprints agree.
func (r *MultitenantResult) StoreUntouched() bool {
	return r.FingerprintBefore == r.FingerprintBetween && r.FingerprintBetween == r.FingerprintAfter
}

// firstCold returns a model's first cold-start latency in the given arm's
// stats (0 if the model never cold-started).
func firstCold(fs *FleetStats, model string) time.Duration {
	if lat := fs.ColdByModel[model]; len(lat) > 0 {
		return lat[0]
	}
	return 0
}

// Multitenant runs the multi-tenancy experiment: the same deterministic
// interleaved trace over the same models, once with every instance owning a
// private runtime (today's one-runtime-per-process serving) and once with
// all instances attached to one shared GPU runtime and cross-model cache.
// The table reports each tenant's first cold start under both arms — on the
// shared runtime every tenant after the first starts on a GPU that already
// holds a context, the mapped residents and every previously loaded module,
// so its cold start is strictly lower — plus the per-tenant attribution of
// who paid for which loads. The tenants are o.Models, one each (default res
// and vgg), at batch 1 on MI100; o.Quick sends two requests per tenant
// instead of four. The result carries the table and a *MultitenantResult.
func Multitenant(o experiments.Options) (*experiments.Result, error) {
	models := o.Models
	if len(models) == 0 {
		models = []string{"res", "vgg"}
	}
	const batch = 1
	prof := device.MI100()
	setups, err := experiments.PrepareModelsShared(models, batch, prof)
	if err != nil {
		return nil, err
	}
	def := models[0]
	store := setups[def].Store
	perTenant, interval := multitenantSchedule(o.Quick)
	trace := InterleavedTrace(models, perTenant, interval)
	fleetCfg := FleetConfig{
		Policy:    Policy{Scheme: core.SchemePaSK},
		KeepAlive: multitenantKeepAlive,
	}

	res := &MultitenantResult{Models: models, FingerprintBefore: store.Fingerprint()}

	fleetCfg.Shared = false
	res.Isolated, err = ServeFleetModels(setups, def, fleetCfg, trace)
	if err != nil {
		return nil, fmt.Errorf("serving: multitenant isolated arm: %w", err)
	}
	res.FingerprintBetween = store.Fingerprint()

	fleetCfg.Shared = true
	res.Shared, err = ServeFleetModels(setups, def, fleetCfg, trace)
	if err != nil {
		return nil, fmt.Errorf("serving: multitenant shared arm: %w", err)
	}
	res.FingerprintAfter = store.Fingerprint()

	table := &experiments.Table{
		ID: "multitenant",
		Title: fmt.Sprintf("shared vs isolated GPU runtime, %d tenants (%s) b%d on %s, %d requests each",
			len(models), strings.Join(models, "+"), batch, prof.Name, perTenant),
		Headers: []string{"tenant", "isolated_cold_ms", "shared_cold_ms", "saved"},
		Notes: []string{
			fmt.Sprintf("module loads: isolated=%d shared=%d (same trace, same store)",
				res.Isolated.ModuleLoads, res.Shared.ModuleLoads),
			fmt.Sprintf("store fingerprint %08x byte-identical across both arms: %v",
				res.FingerprintBefore, res.StoreUntouched()),
		},
	}
	for _, m := range models {
		iso := firstCold(res.Isolated, m)
		sh := firstCold(res.Shared, m)
		saved := "-"
		if iso > 0 {
			saved = fmt.Sprintf("%.1f%%", 100*(1-float64(sh)/float64(iso)))
		}
		table.Rows = append(table.Rows, []string{m, fmtMs(iso), fmtMs(sh), saved})
	}
	for _, ts := range res.Shared.TenantLoads {
		if ts.Tenant == "" { // root view: no tenant activity of its own
			continue
		}
		table.Notes = append(table.Notes, "shared-arm "+formatTenantLoad(ts))
	}
	return &experiments.Result{Tables: []*experiments.Table{table}, Bench: res}, nil
}

// formatTenantLoad renders one tenant attribution line.
func formatTenantLoad(ts backend.TenantStats) string {
	return fmt.Sprintf("tenant=%s loads=%d loaded_mb=%.2f load_ms=%.2f shared_hits=%d coalesced=%d",
		ts.Tenant, ts.Loads, float64(ts.BytesLoaded)/(1<<20),
		float64(ts.LoadTime)/float64(time.Millisecond), ts.SharedHits, ts.CoalescedWaits)
}
