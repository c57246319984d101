package serving

import (
	"fmt"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/trace"
)

// The overload scenario's fixed shape.
const (
	// overloadMeanInterval is the Poisson mean inter-arrival: about 60%
	// utilization of overloadMaxInstances warm instances.
	overloadMeanInterval = 12 * time.Millisecond
	// overloadMaxInstances caps the fleet; the cap is what turns a burst
	// into queueing.
	overloadMaxInstances = 3
	// overloadSLO is the end-to-end objective served requests are judged
	// against.
	overloadSLO = 265 * time.Millisecond
	// overloadFTDeadline is the per-request service deadline on the Poisson
	// cells: above a warm serve, below a post-reset reload. The overruns it
	// creates are what trip the breaker.
	overloadFTDeadline = 55 * time.Millisecond
	// overloadSlowExtra is the slow-loader storage brownout added to module
	// loads: for the whole burst cell, and in a window after the Poisson
	// cell's device reset. These are the fault storms the reuse-heavy arm
	// dodges by not loading.
	overloadSlowExtra = 25 * time.Millisecond
	// overloadSeed drives the Poisson trace and all deterministic jitter.
	overloadSeed = 11
)

// overloadSize returns the Poisson trace length and the size of the
// simultaneous-arrival spike injected through the fault plan's request
// flood.
func overloadSize(quick bool) (requests, burst int) {
	if quick {
		return 24, 20
	}
	return 40, 36
}

// overloadArm is one protection level of the comparison.
type overloadArm struct {
	Name     string
	Shedding bool // admission control + circuit breakers
	Brownout bool // pressure-adaptive selective reuse on top
}

// overloadArms returns the compared arms: unprotected, shed-only, and shed
// plus brownout.
func overloadArms() []overloadArm {
	return []overloadArm{
		{Name: "none"},
		{Name: "shed", Shedding: true},
		{Name: "brownout", Shedding: true, Brownout: true},
	}
}

// OverloadCell is one (device, trace, arm) measurement.
type OverloadCell struct {
	Trace    string `json:"trace"`
	Arm      string `json:"arm"`
	Requests int    `json:"requests"`
	Served   int    `json:"served"`
	// Shed/BreakerRejected requests never reached an instance; Failed ones
	// did and lost; SLOMisses completed but too late. LossRate is the
	// experiment's generalized shed rate: the fraction of requests that
	// were dropped, rejected, failed or late — the user-visible damage an
	// unprotected fleet spreads over everyone and a protected fleet
	// concentrates on deliberate sheds.
	Shed              int     `json:"shed"`
	BreakerRejected   int     `json:"breaker_rejected"`
	Failed            int     `json:"failed"`
	SLOMisses         int     `json:"slo_misses"`
	LossRate          float64 `json:"loss_rate"`
	P50Ms             float64 `json:"p50_ms"`
	P99Ms             float64 `json:"p99_ms"`
	MeanMs            float64 `json:"mean_ms"`
	ColdStarts        int     `json:"cold_starts"`
	BreakerTrips      int     `json:"breaker_trips"`
	BreakerRecoveries int     `json:"breaker_recoveries"`
	BrownoutEnters    int     `json:"brownout_enters"`
	PressurePeak      int     `json:"pressure_peak"`
	PressureReuse     int     `json:"pressure_reuse"`
	ModuleLoads       int     `json:"module_loads"`
}

// OverloadDeviceResult groups one device profile's cells.
type OverloadDeviceResult struct {
	Device string         `json:"device"`
	Cells  []OverloadCell `json:"cells"`
}

// OverloadBench is the machine-readable result emitted as
// BENCH_overload.json. Fully deterministic: a fixed config (seed) produces
// byte-identical JSON.
type OverloadBench struct {
	Experiment string                 `json:"experiment"`
	Model      string                 `json:"model"`
	Batch      int                    `json:"batch"`
	Seed       int64                  `json:"seed"`
	Devices    []OverloadDeviceResult `json:"devices"`
}

// overloadPlan builds the cell's fault plan — identical across arms so the
// comparison is fair. Burst cells pair the request flood with a sustained
// slow loader (the §I fault storm: a spike arriving while storage is
// degraded). Poisson cells fire a mid-trace device reset with a slow-loader
// window over the reload: the first post-reset serve on each instance
// overruns overloadFTDeadline, and those consecutive overruns trip the
// breaker.
func overloadPlan(requests, burst int, poisson bool) faults.Plan {
	plan := faults.Plan{Seed: overloadSeed, SlowLoadExtra: overloadSlowExtra}
	if poisson {
		reset := time.Duration(requests/2) * overloadMeanInterval
		plan.DeviceResetAt = reset
		plan.SlowFrom = reset
		plan.SlowUntil = reset + 8*overloadMeanInterval
	} else {
		plan.FloodN = burst
	}
	return plan
}

// overloadRun measures every arm of one (device, trace-kind) overload cell
// on an already-prepared model. traceKind is "poisson" or "burst"; every arm
// faces the identical seeded trace and fault plan, sized by overloadSize.
// rec, when non-nil, is attached to brownout arms so breaker and pressure
// counters land in the timeline.
func overloadRun(ms *experiments.ModelSetup, requests, burst int, traceKind string, rec *trace.Recorder) ([]OverloadCell, error) {
	poisson := traceKind == "poisson"
	if !poisson && traceKind != "burst" {
		return nil, fmt.Errorf("serving: unknown overload trace kind %q", traceKind)
	}
	total := burst
	var tr Trace
	if poisson {
		tr = PoissonTrace(requests, overloadMeanInterval, overloadSeed)
		total = requests
	}
	var cells []OverloadCell
	for _, arm := range overloadArms() {
		// The FaultTolerance backoff seed also drives the breakers'
		// cooldown jitter.
		pol := Policy{
			Scheme: core.SchemePaSK,
			FT:     FaultTolerance{ContinueOnError: true, BackoffSeed: overloadSeed},
			Faults: faults.New(overloadPlan(requests, burst, poisson)),
		}
		if poisson {
			// The service deadline is what turns slow cold starts into the
			// consecutive failures that trip the breaker.
			pol.FT.Deadline = overloadFTDeadline
		}
		if arm.Brownout {
			pol.Rec = rec
		}
		// Poisson cells run on a shared GPU host: the fault plan's
		// device reset is armed against the host root, so all
		// instances lose their modules at once and their coalesced
		// slow reloads produce the consecutive deadline overruns
		// that trip the breaker. Burst cells run isolated instances:
		// each cold start pays its own loads, which is what the
		// slow-loader storm amplifies and the brownout arm's forced
		// reuse avoids.
		fc := FleetConfig{Policy: pol, MaxInstances: overloadMaxInstances, Shared: poisson,
			Shedding: arm.Shedding, Brownout: arm.Brownout, SLO: overloadSLO}
		// The setup's key names the tenants ("model/N") and the breaker
		// ("breaker_state:model") in the trace.
		stats, err := ServeFleetModels(map[string]*experiments.ModelSetup{"model": ms}, "model", fc, tr)
		if err != nil {
			return nil, fmt.Errorf("overload %s/%s: %w", traceKind, arm.Name, err)
		}
		cells = append(cells, overloadCell(traceKind, arm.Name, total, stats))
	}
	return cells, nil
}

// Overload runs the overload-protection comparison: on every device
// profile, a Poisson trace and a burst trace each cross the three arms
// (no protection, admission+breaker shedding, shedding+brownout). Each
// cell runs the same seeded trace and fault plan on a capped shared-GPU
// fleet, so differences are purely the protection policy. It serves the
// first selected model (default res) at the first selected batch (default
// and minimum 1); o.Quick shrinks the traces. o.Trace captures the first
// device's brownout-arm cells: the Poisson cell contributes the breaker
// state counter, the burst cell the brownout pressure counter. The result
// carries the rendered table and an *OverloadBench.
func Overload(o experiments.Options) (*experiments.Result, error) {
	model, batch := o.Model("res"), max(o.Batch(), 1)
	requests, burst := overloadSize(o.Quick)
	table := &experiments.Table{
		ID: "Overload",
		Title: fmt.Sprintf("overload protection: %s b%d, %d-request Poisson + %d-request burst, %d instances",
			model, batch, requests, burst, overloadMaxInstances),
		Headers: []string{"device", "trace", "arm", "served", "shed", "rejected", "failed",
			"slo_miss", "loss", "p50_ms", "p99_ms", "cold", "trips", "reuse", "loads"},
		Notes: []string{
			"loss = (shed + rejected + failed + slo misses) / requests — the generalized shed rate",
			"burst cells add a slow-loader storage brownout; all arms of a cell face the identical plan",
			fmt.Sprintf("seed=%d; the bench JSON is byte-identical across runs", overloadSeed),
		},
	}
	bench := &OverloadBench{Experiment: "overload", Model: model, Batch: batch, Seed: overloadSeed}

	for devIdx, prof := range device.Profiles() {
		ms, err := experiments.PrepareModel(model, batch, prof)
		if err != nil {
			return nil, err
		}
		dr := OverloadDeviceResult{Device: prof.Name}
		for _, traceKind := range []string{"poisson", "burst"} {
			var rec *trace.Recorder
			if devIdx == 0 {
				rec = o.Trace
			}
			cells, err := overloadRun(ms, requests, burst, traceKind, rec)
			if err != nil {
				return nil, fmt.Errorf("overload %s: %w", prof.Name, err)
			}
			for _, cell := range cells {
				dr.Cells = append(dr.Cells, cell)
				table.Rows = append(table.Rows, []string{
					prof.Name, traceKind, cell.Arm,
					fmt.Sprintf("%d/%d", cell.Served, cell.Requests),
					fmt.Sprintf("%d", cell.Shed),
					fmt.Sprintf("%d", cell.BreakerRejected),
					fmt.Sprintf("%d", cell.Failed),
					fmt.Sprintf("%d", cell.SLOMisses),
					fmt.Sprintf("%.0f%%", 100*cell.LossRate),
					fmt.Sprintf("%.2f", cell.P50Ms),
					fmt.Sprintf("%.2f", cell.P99Ms),
					fmt.Sprintf("%d", cell.ColdStarts),
					fmt.Sprintf("%d", cell.BreakerTrips),
					fmt.Sprintf("%d", cell.PressureReuse),
					fmt.Sprintf("%d", cell.ModuleLoads),
				})
			}
		}
		bench.Devices = append(bench.Devices, dr)
	}
	return &experiments.Result{Tables: []*experiments.Table{table}, Bench: bench}, nil
}

func overloadCell(traceKind, arm string, total int, stats *FleetStats) OverloadCell {
	cell := OverloadCell{
		Trace:             traceKind,
		Arm:               arm,
		Requests:          total,
		Served:            len(stats.Latencies),
		Shed:              stats.Shed,
		BreakerRejected:   stats.BreakerRejected,
		Failed:            stats.Failed,
		SLOMisses:         stats.SLOMisses,
		P50Ms:             millis(stats.Percentile(0.5)),
		P99Ms:             millis(stats.Percentile(0.99)),
		MeanMs:            millis(stats.Mean()),
		ColdStarts:        stats.ColdStarts,
		BreakerTrips:      stats.BreakerTrips,
		BreakerRecoveries: stats.BreakerRecoveries,
		BrownoutEnters:    stats.BrownoutEnters,
		PressurePeak:      stats.PressurePeak,
		PressureReuse:     stats.PressureReuse,
		ModuleLoads:       stats.ModuleLoads,
	}
	if total > 0 {
		cell.LossRate = float64(cell.Shed+cell.BreakerRejected+cell.Failed+cell.SLOMisses) / float64(total)
	}
	return cell
}
