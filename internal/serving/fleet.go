package serving

import (
	"fmt"
	"time"

	"pask/internal/backend"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/sim"
)

// FleetConfig drives the autoscaling router.
type FleetConfig struct {
	Policy Policy
	// KeepAlive reaps instances idle longer than this (0: never reap) —
	// the keep-alive policy whose misses cause serverless cold starts.
	KeepAlive time.Duration
	// MaxInstances caps concurrent instances (0: unlimited). Requests
	// arriving with every instance busy at the cap wait for a free one,
	// unless an idle instance of another model can be swapped out.
	MaxInstances int
	// Shared attaches every instance to one per-GPU shared runtime and
	// cross-model cache instead of giving each its own device. Cold starts
	// then only pay for modules no earlier tenant loaded.
	Shared bool
	// Shedding turns on admission control and per-model circuit breakers.
	// A request that has waited longer than shedQueueDeadline when the
	// dispatcher reaches it is shed with ErrShed; breakerThreshold
	// consecutive failures of a model open its breaker, and requests
	// arriving while it is open are rejected with ErrBreakerOpen. Shed and
	// rejected requests are counted in the stats, never served.
	Shedding bool
	// Brownout raises PASK's reuse aggressiveness (core pressure signal)
	// when the queue deepens past brownoutEnterDepth, so layers run on
	// already-loaded generic solutions instead of issuing new loads.
	Brownout bool
	// SLO is the end-to-end latency objective (queueing + service): served
	// requests slower than it count in Stats.SLOMisses but stay in the
	// latency distribution. 0 means no objective.
	SLO time.Duration
}

// FleetStats extends Stats with autoscaling and attribution activity.
type FleetStats struct {
	Stats
	Spawned       int // instances created (each pays a cold start)
	Reaped        int // instances destroyed by keep-alive expiry
	Swapped       int // idle instances closed at the cap to admit another model
	MaxConcurrent int

	// ColdByModel records each model's cold-start latencies in arrival
	// order; index 0 is the model's first-ever cold start.
	ColdByModel map[string][]time.Duration

	// ModuleLoads/BytesLoaded total the kernel loading under the fleet. In
	// shared mode they come from the one GPU runtime and are exact; in
	// isolated mode they are summed per instance at teardown, so runtimes
	// discarded mid-flight by crash recovery are not counted.
	ModuleLoads int
	BytesLoaded int64

	// TenantLoads attributes shared-runtime loading per tenant view (only
	// populated in shared mode): who paid for each load, who hit modules
	// other tenants loaded, and who coalesced onto in-flight loads.
	TenantLoads []backend.TenantStats
}

// fleetInstance wraps an instance with scheduling state.
type fleetInstance struct {
	inst     *Instance
	model    string
	busy     bool
	idleFrom time.Duration
}

// ServeFleetModels routes a heterogeneous request trace across an
// autoscaled pool of model instances: each arrival goes to an idle instance
// of its model when one exists, otherwise a fresh instance cold-starts
// (subject to MaxInstances — at the cap an idle instance of another model
// is swapped out if possible, else the dispatcher waits); instances idle
// past KeepAlive are reaped whether or not they ever served successfully,
// so a permanently faulting instance cannot squat in the pool. Request
// latencies run from arrival to completion, so they include process
// bring-up and any wait for a free slot. A BurstTrace with no cap is the
// serverless scale-out spike: every request lands on a fresh cold instance.
//
// With cfg.Shared, instances are tenants of one GPUHost: one device, one
// module registry, one cross-model cache. The setups must then come from
// experiments.PrepareModelsShared (one registry and store); this is
// validated up front. The policy's fault tolerance applies per request;
// with ContinueOnError failed requests are recorded in the stats and
// dropped from the latency distribution.
func ServeFleetModels(setups map[string]*experiments.ModelSetup, def string, cfg FleetConfig, trace Trace) (*FleetStats, error) {
	defSetup, ok := setups[def]
	if !ok {
		return nil, fmt.Errorf("serving: fleet default model %q has no setup", def)
	}
	for abbr, ms := range setups {
		if ms.Store != defSetup.Store {
			return nil, fmt.Errorf("serving: fleet setups must share one code-object store (model %q differs; use PrepareModelsShared)", abbr)
		}
	}
	env := sim.NewEnv()
	if cfg.Policy.Faults != nil {
		trace = ApplyFlood(trace, cfg.Policy.Faults.Plan())
	}
	for i, req := range trace {
		if _, ok := setups[req.Model]; !ok && req.Model != "" {
			return nil, fmt.Errorf("serving: request %d targets unknown model %q", i, req.Model)
		}
	}

	var host *GPUHost
	if cfg.Shared {
		// HIP on every profile, A100 included: the overload experiment's
		// A100 cells were recorded against this flavor.
		host = NewGPUHost(backend.New(env, device.NewGPU(env, defSetup.Profile), device.DefaultHost(), defSetup.Store, backend.HIP))
	}

	stats := &FleetStats{ColdByModel: make(map[string][]time.Duration)}
	// The guard installs the brownout controller as the policy's pressure
	// source before any instance copies the policy.
	guard := newOverloadGuard(&cfg, &stats.Stats)
	var pool []*fleetInstance
	reqs := newInflight(env)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// closeInst tears an instance down, folding its private runtime's load
	// totals into the fleet stats first (shared-mode totals come from the
	// host at the end instead).
	closeInst := func(fi *fleetInstance) {
		if !cfg.Shared {
			st := fi.inst.pr.RT.Stats()
			stats.ModuleLoads += st.ModuleLoads
			stats.BytesLoaded += st.BytesLoaded
		}
		fi.inst.close()
	}

	reap := func(now time.Duration) {
		if cfg.KeepAlive <= 0 {
			return
		}
		kept := pool[:0]
		for _, fi := range pool {
			// Idle past the keep-alive wins a reap regardless of Warm():
			// an instance whose every serve failed must still age out.
			if !fi.busy && now-fi.idleFrom > cfg.KeepAlive {
				closeInst(fi)
				stats.Reaped++
				continue
			}
			kept = append(kept, fi)
		}
		pool = kept
	}

	spawn := func(model string, now time.Duration) *fleetInstance {
		tenant := ""
		if cfg.Shared {
			tenant = fmt.Sprintf("%s/%d", model, stats.Spawned)
		}
		inst := newInstance(env, host, setups[model], cfg.Policy, &stats.Stats, tenant)
		fi := &fleetInstance{inst: inst, model: model, idleFrom: now}
		pool = append(pool, fi)
		stats.Spawned++
		if len(pool) > stats.MaxConcurrent {
			stats.MaxConcurrent = len(pool)
		}
		return fi
	}

	// pick returns an idle instance of the request's model, spawning (or
	// swapping an idle foreign-model instance out at the cap) if needed; it
	// blocks the dispatcher in virtual time when the pool is saturated.
	pick := func(p *sim.Proc, model string) *fleetInstance {
		for {
			for _, fi := range pool {
				if !fi.busy && fi.model == model {
					return fi
				}
			}
			if cfg.MaxInstances <= 0 || len(pool) < cfg.MaxInstances {
				return spawn(model, p.Now())
			}
			// At the cap: evict an idle instance of another model to make
			// room — the cross-model churn a shared runtime absorbs.
			swapped := false
			for i, fi := range pool {
				if !fi.busy {
					closeInst(fi)
					pool = append(pool[:i], pool[i+1:]...)
					stats.Swapped++
					swapped = true
					break
				}
			}
			if swapped {
				return spawn(model, p.Now())
			}
			// Saturated with busy instances: wait for a completion.
			reqs.next(p)
		}
	}

	latencies := make([]time.Duration, len(trace))
	served := make([]bool, len(trace))
	env.Spawn("dispatcher", func(p *sim.Proc) {
		// Every exit, fail-fast included, closes: the closer then drains
		// whatever is still in flight.
		defer reqs.close()
		for i, req := range trace {
			model := req.Model
			if model == "" {
				model = def
			}
			p.SleepUntil(req.At)
			// Admission is decided when the dispatcher reaches the request:
			// a request that already outwaited its queue deadline while the
			// dispatcher was blocked on a saturated pool is dropped as stale
			// instead of occupying an instance.
			if guard.admit(p.Now(), trace, i) != nil {
				continue
			}
			brk := guard.breaker(model)
			if brk != nil && !brk.allow(p.Now()) {
				guard.reject(p.Now(), i)
				continue
			}
			reap(p.Now())
			fi := pick(p, model)
			if firstErr != nil {
				return
			}
			fi.busy = true
			wasCold := !fi.inst.Warm()
			arrived := req.At
			i, model := i, model
			reqs.spawn(fmt.Sprintf("req-%d", i), func(rp *sim.Proc) {
				// Scheduling state resets whether the serve succeeded or
				// not: a faulted instance returns to idle (and from there
				// to the reaper) instead of staying busy forever.
				defer func() {
					fi.busy = false
					fi.idleFrom = rp.Now()
				}()
				_, err := fi.inst.serve(rp, i)
				brk.observe(rp.Now(), err)
				if err != nil {
					if !cfg.Policy.FT.ContinueOnError {
						fail(fmt.Errorf("request %d (%s): %w", i, model, err))
					}
					return
				}
				// End-to-end latency from arrival: queueing + service.
				latencies[i] = rp.Now() - arrived
				served[i] = true
				stats.observeSLO(latencies[i], cfg.SLO)
				if wasCold {
					stats.ColdStarts++
					stats.ColdLatencies = append(stats.ColdLatencies, latencies[i])
					stats.ColdByModel[model] = append(stats.ColdByModel[model], latencies[i])
				}
			})
		}
	})
	env.Spawn("closer", func(p *sim.Proc) {
		reqs.wait(p)
		for _, fi := range pool {
			closeInst(fi)
		}
		if host != nil {
			st := host.Root().Stats()
			stats.ModuleLoads = st.ModuleLoads
			stats.BytesLoaded = st.BytesLoaded
			stats.TenantLoads = host.Root().AllTenantStats()
			host.Close()
		}
	})
	if err := env.Run(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range trace {
		if served[i] {
			stats.Latencies = append(stats.Latencies, latencies[i])
		}
	}
	return stats, nil
}
