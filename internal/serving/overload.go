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

// OverloadConfig parameterizes the overload-protection experiment.
type OverloadConfig struct {
	Model string // zoo abbreviation (default "res")
	Batch int    // default 1
	// Requests is the Poisson trace length (default 40).
	Requests int
	// MeanInterval is the Poisson mean inter-arrival (default 12ms — about
	// 60% utilization of MaxInstances warm instances).
	MeanInterval time.Duration
	// Burst is the size of the simultaneous-arrival spike, injected through
	// the fault plan's request flood (default 36).
	Burst int
	// MaxInstances caps the fleet (default 3) — the cap is what turns a
	// burst into queueing.
	MaxInstances int
	// SLO is the end-to-end objective served requests are judged against
	// (default 240ms).
	SLO time.Duration
	// QueueDeadline is the admission bound the protected arms shed on
	// (default 200ms — roughly SLO minus a warm service time, so admitted
	// requests can still make the objective).
	QueueDeadline time.Duration
	// FTDeadline is the per-request service deadline on the Poisson cells:
	// above a warm serve, below a post-reset reload — the overruns it
	// creates are what trip the breaker (default 45ms).
	FTDeadline time.Duration
	// SlowExtra is the slow-loader storage brownout added to module loads:
	// for the whole burst cell, and in a window after the Poisson cell's
	// device reset — the fault storms the reuse-heavy arm dodges by not
	// loading (default 15ms).
	SlowExtra time.Duration
	// Seed drives the Poisson trace and all deterministic jitter.
	Seed int64
	// Rec, when set, captures the first device's brownout-arm cells: the
	// Poisson cell contributes the breaker state counter, the burst cell
	// the brownout pressure counter.
	Rec *trace.Recorder
	// Quick shrinks the traces for CI smoke runs.
	Quick bool
}

func (c *OverloadConfig) fill() {
	if c.Model == "" {
		c.Model = "res"
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Requests <= 0 {
		c.Requests = 40
	}
	if c.MeanInterval <= 0 {
		c.MeanInterval = 12 * time.Millisecond
	}
	if c.Burst <= 0 {
		c.Burst = 36
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 3
	}
	if c.SLO <= 0 {
		c.SLO = 265 * time.Millisecond
	}
	if c.QueueDeadline <= 0 {
		c.QueueDeadline = 240 * time.Millisecond
	}
	if c.FTDeadline <= 0 {
		c.FTDeadline = 55 * time.Millisecond
	}
	if c.SlowExtra <= 0 {
		c.SlowExtra = 25 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Quick {
		c.Requests = min(c.Requests, 24)
		c.Burst = min(c.Burst, 20)
	}
}

// OverloadArm is one protection level of the comparison.
type OverloadArm struct {
	Name     string
	Shedding bool // admission control + circuit breakers
	Brownout bool // pressure-adaptive selective reuse on top
}

// OverloadArms returns the compared arms: unprotected, shed-only, and shed
// plus brownout.
func OverloadArms() []OverloadArm {
	return []OverloadArm{
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

// overloadPolicy builds one arm's policy for one trace kind.
func overloadPolicy(cfg OverloadConfig, arm OverloadArm, poisson bool, rec *trace.Recorder) Policy {
	pol := Policy{
		Scheme: core.SchemePaSK,
		FT:     FaultTolerance{ContinueOnError: true, BackoffSeed: cfg.Seed},
		SLO:    cfg.SLO,
		Rec:    rec,
	}
	if poisson {
		// The service deadline is what turns slow cold starts into the
		// consecutive failures that trip the breaker.
		pol.FT.Deadline = cfg.FTDeadline
	}
	if arm.Shedding {
		pol.Admission = AdmissionConfig{QueueDeadline: cfg.QueueDeadline}
		pol.Breaker = BreakerConfig{Threshold: 3, Cooldown: 25 * time.Millisecond, Seed: cfg.Seed}
	}
	if arm.Brownout {
		pol.Brownout = BrownoutConfig{Enabled: true, EnterDepth: 2, SevereDepth: 4}
	}
	return pol
}

// overloadPlan builds the cell's fault plan — identical across arms so the
// comparison is fair. Burst cells pair the request flood with a sustained
// slow loader (the §I fault storm: a spike arriving while storage is
// degraded). Poisson cells fire a mid-trace device reset with a slow-loader
// window over the reload: the first post-reset serve on each instance
// overruns FTDeadline, and those consecutive overruns trip the breaker.
func overloadPlan(cfg OverloadConfig, poisson bool) faults.Plan {
	plan := faults.Plan{Seed: cfg.Seed, SlowLoadExtra: cfg.SlowExtra}
	if poisson {
		reset := time.Duration(cfg.Requests/2) * cfg.MeanInterval
		plan.DeviceResetAt = reset
		plan.SlowFrom = reset
		plan.SlowUntil = reset + 8*cfg.MeanInterval
	} else {
		plan.FloodN = cfg.Burst
	}
	return plan
}

// overloadRun measures every arm of one (device, trace-kind) overload cell
// on an already-prepared model. traceKind is "poisson" or "burst"; every arm
// faces the identical seeded trace and fault plan. rec, when non-nil, is
// attached to brownout arms so breaker and pressure counters land in the
// timeline.
func overloadRun(ms *experiments.ModelSetup, cfg OverloadConfig, traceKind string, rec *trace.Recorder) ([]OverloadCell, error) {
	cfg.fill()
	poisson := traceKind == "poisson"
	if !poisson && traceKind != "burst" {
		return nil, fmt.Errorf("serving: unknown overload trace kind %q", traceKind)
	}
	var tr Trace
	total := cfg.Burst
	if poisson {
		tr = PoissonTrace(cfg.Requests, cfg.MeanInterval, cfg.Seed)
		total = cfg.Requests
	}
	var cells []OverloadCell
	for _, arm := range OverloadArms() {
		var armRec *trace.Recorder
		if arm.Brownout {
			armRec = rec
		}
		pol := overloadPolicy(cfg, arm, poisson, armRec)
		pol.Faults = faults.New(overloadPlan(cfg, poisson))
		// Poisson cells run on a shared GPU host: the fault plan's
		// device reset is armed against the host root, so all
		// instances lose their modules at once and their coalesced
		// slow reloads produce the consecutive deadline overruns
		// that trip the breaker. Burst cells run isolated instances:
		// each cold start pays its own loads, which is what the
		// slow-loader storm amplifies and the brownout arm's forced
		// reuse avoids.
		fc := FleetConfig{Policy: pol, MaxInstances: cfg.MaxInstances, Shared: poisson}
		stats, err := ServeFleet(ms, fc, tr)
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
// fleet, so differences are purely the protection policy. Returns the
// rendered table and the machine-readable bench.
func Overload(cfg OverloadConfig) (*experiments.Table, *OverloadBench, error) {
	cfg.fill()
	table := &experiments.Table{
		ID: "Overload",
		Title: fmt.Sprintf("overload protection: %s b%d, %d-request Poisson + %d-request burst, %d instances",
			cfg.Model, cfg.Batch, cfg.Requests, cfg.Burst, cfg.MaxInstances),
		Headers: []string{"device", "trace", "arm", "served", "shed", "rejected", "failed",
			"slo_miss", "loss", "p50_ms", "p99_ms", "cold", "trips", "reuse", "loads"},
		Notes: []string{
			"loss = (shed + rejected + failed + slo misses) / requests — the generalized shed rate",
			"burst cells add a slow-loader storage brownout; all arms of a cell face the identical plan",
			fmt.Sprintf("seed=%d; the bench JSON is byte-identical across runs", cfg.Seed),
		},
	}
	bench := &OverloadBench{Experiment: "overload", Model: cfg.Model, Batch: cfg.Batch, Seed: cfg.Seed}

	for devIdx, prof := range device.Profiles() {
		ms, err := experiments.PrepareModel(cfg.Model, cfg.Batch, prof)
		if err != nil {
			return nil, nil, err
		}
		dr := OverloadDeviceResult{Device: prof.Name}
		for _, traceKind := range []string{"poisson", "burst"} {
			var rec *trace.Recorder
			if devIdx == 0 {
				rec = cfg.Rec
			}
			cells, err := overloadRun(ms, cfg, traceKind, rec)
			if err != nil {
				return nil, nil, fmt.Errorf("overload %s: %w", prof.Name, err)
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
	return table, bench, nil
}

func overloadCell(traceKind, arm string, total int, stats *FleetStats) OverloadCell {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	cell := OverloadCell{
		Trace:             traceKind,
		Arm:               arm,
		Requests:          total,
		Served:            len(stats.Latencies),
		Shed:              stats.Shed,
		BreakerRejected:   stats.BreakerRejected,
		Failed:            stats.Failed,
		SLOMisses:         stats.SLOMisses,
		P50Ms:             ms(stats.Percentile(0.5)),
		P99Ms:             ms(stats.Percentile(0.99)),
		MeanMs:            ms(stats.Mean()),
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
