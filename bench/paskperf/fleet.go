package main

import (
	"fmt"
	"runtime"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/serving"
	"pask/internal/traffic"
)

// fleetWL is warm multi-tenant serving: every model shares one GPU runtime
// and cross-model cache, arrivals follow a Zipf mix with a popularity shift
// and a flash crowd, and idle instances are reaped after a keep-alive. Most
// requests hit warm instances or shared modules, so the dispatcher, the
// event loop and the registry hit paths dominate and code-object building
// stays in set-up.
type fleetWL struct {
	cfg      config
	gold     *digests
	models   []string
	setups   map[string]*experiments.ModelSetup
	arrivals int
	calls    int // calls made, for per-call seeds
	// Totals over the measured calls, for the detail metrics.
	tot fleetTotals
}

type fleetTotals struct {
	calls, requests, spawned, reaped, maxConc, cold, served, sharedHits, tenantLoads int
}

const fleetKeepAlive = 300 * time.Millisecond

func newFleet(cfg config, g *goldens) (*fleetWL, error) {
	gold, err := g.get("fleet")
	if err != nil {
		return nil, err
	}
	w := &fleetWL{cfg: cfg, gold: gold, models: cfg.models, arrivals: cfg.arrivals}
	if len(w.models) == 0 {
		w.models = experiments.AllModelAbbrs()
	}
	if w.arrivals == 0 {
		w.arrivals = 3000
	}
	return w, nil
}

// fleetTrace draws n arrivals at 200/s (virtual) from a Zipf(1.1) mix whose
// ranking rotates by half at the midpoint, with a 4x flash crowd on the
// model that is least popular after the shift.
func fleetTrace(models []string, n int, seed int64) (serving.Trace, error) {
	const rate = 200.0
	dur := time.Duration(float64(n) / rate * float64(time.Second))
	k := len(models)
	shifted := make([]int, k)
	for i := range shifted {
		shifted[i] = (i + k/2) % k
	}
	g, err := traffic.New(traffic.Config{
		Models: models, Exponent: 1.1, Rate: rate, Seed: seed,
		Shifts: []traffic.Shift{{At: dur / 2, Rank: shifted}},
		Crowds: []traffic.FlashCrowd{{Onset: dur * 7 / 10, Ramp: dur / 50, Hold: dur / 20, Decay: dur / 50,
			Peak: 4, Model: models[shifted[k-1]]}},
	})
	if err != nil {
		return nil, err
	}
	tr := make(serving.Trace, n)
	for i, r := range g.Generate(n) {
		tr[i] = serving.Request{At: r.At, Model: r.Model}
	}
	return tr, nil
}

func (w *fleetWL) serve(tr serving.Trace) (*serving.FleetStats, error) {
	return serving.ServeFleetModels(w.setups, w.models[0], serving.FleetConfig{
		Policy: serving.Policy{Scheme: core.SchemePaSK}, KeepAlive: fleetKeepAlive, Shared: true,
	}, tr)
}

// fleetDigest covers the accounting, every latency, the per-model cold
// starts and the module loads of one call.
func fleetDigest(st *serving.FleetStats) string {
	return shaJSON(map[string]any{
		"served": len(st.Latencies), "failed": st.Failed, "shed": st.Shed,
		"rejected": st.BreakerRejected, "evacuated": st.Evacuated,
		"latencies": st.Latencies, "cold_by_model": st.ColdByModel,
		"module_loads": st.ModuleLoads, "spawned": st.Spawned, "reaped": st.Reaped,
	})
}

// closes reports whether every request is accounted for exactly once.
func closes(st *serving.FleetStats, requests int) bool {
	return len(st.Latencies)+st.Failed+st.Shed+st.BreakerRejected+st.Evacuated == requests
}

// setUp prepares the shared setups five times (each a unit; the last is
// kept) and serves one reference trace, checked against its golden digest,
// which also warms the process before timing.
func (w *fleetWL) setUp(tr *tracer) ([]time.Duration, error) {
	var units []time.Duration
	for i := 0; i < 5; i++ {
		// Free the previous unit first, so the process's peak memory does not
		// depend on when the collector happened to run.
		w.setups = nil
		runtime.GC()
		id := tr.begin("experiments.PrepareModelsShared", "setup", -1, int64(i))
		t0 := time.Now()
		s, err := experiments.PrepareModelsShared(w.models, 1, device.MI100())
		units = append(units, time.Since(t0))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		w.setups = s
	}
	w.gold.check("store/shared/MI100", fmt.Sprintf("%08x", w.setups[w.models[0]].Store.Fingerprint()))
	ref, err := fleetTrace(w.models, w.arrivals, 1)
	if err != nil {
		return nil, err
	}
	id := tr.begin("serving.ServeFleetModels", "setup", -1, -1)
	st, err := w.serve(ref)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if !closes(st, len(ref)) {
		w.gold.fail("fleet reference: accounting does not close")
	}
	w.gold.check(fmt.Sprintf("reference/%d", w.arrivals), fleetDigest(st))
	return units, nil
}

// measure serves seeded traces, one ServeFleetModels call each, until d has
// passed. Trace generation is outside the timed calls.
func (w *fleetWL) measure(d time.Duration, tr *tracer, root int) (phase, error) {
	var ph phase
	start := time.Now()
	for time.Since(start) < d || ph.attempted == 0 {
		trace, err := fleetTrace(w.models, w.arrivals, w.cfg.seed*1000+int64(w.calls))
		if err != nil {
			return ph, err
		}
		w.calls++
		op := int64(ph.attempted)
		ph.attempted++
		id := tr.begin("serving.ServeFleetModels", "measure", root, op)
		t0 := time.Now()
		st, err := w.serve(trace)
		lat := time.Since(t0)
		tr.end(id)
		if err != nil {
			return ph, err
		}
		ph.latencies = append(ph.latencies, lat)
		ph.windows = append(ph.windows, float64(len(trace))/lat.Seconds())
		ph.elapsed += lat
		ph.units += len(trace)
		if !closes(st, len(trace)) {
			w.gold.fail("fleet call %d: accounting does not close", w.calls)
			ph.failed++
		}
		ph.loads.ops++
		ph.loads.loads += st.ModuleLoads
		ph.loads.bytes += st.BytesLoaded
		t := &w.tot
		t.calls++
		t.requests += len(trace)
		t.spawned += st.Spawned
		t.reaped += st.Reaped
		t.maxConc = max(t.maxConc, st.MaxConcurrent)
		t.cold += st.ColdStarts
		t.served += len(st.Latencies)
		for _, ts := range st.TenantLoads {
			t.sharedHits += ts.SharedHits
			t.tenantLoads += ts.Loads
		}
	}
	return ph, nil
}

func (w *fleetWL) extras() map[string]metric {
	t := w.tot
	per := func(v int) float64 { return float64(v) / float64(max(t.calls, 1)) }
	return map[string]metric{
		"fleet.calls":              {float64(t.calls), "count"},
		"serving.spawned":          {per(t.spawned), "count"},
		"serving.reaped":           {per(t.reaped), "count"},
		"serving.cold_ratio":       {float64(t.cold) / float64(max(t.served, 1)), "ratio"},
		"serving.max_concurrent":   {float64(t.maxConc), "count"},
		"backend.shared_hit_ratio": {float64(t.sharedHits) / float64(max(t.sharedHits+t.tenantLoads, 1)), "ratio"},
	}
}
