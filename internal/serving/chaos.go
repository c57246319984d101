package serving

import (
	"fmt"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
)

// ChaosConfig parameterizes the fault-injection sweep.
type ChaosConfig struct {
	Model        string         // zoo abbreviation (default "res")
	Batch        int            // default 1
	Profile      device.Profile // default MI100
	Requests     int            // trace length (default 60)
	MeanInterval time.Duration  // Poisson mean inter-arrival (default 2ms)
	EvictEvery   int            // eviction period, repeated cold paths (default 10)
	Seed         int64          // fault and trace seed (0: a default that hits loaded objects)
	Transients   []float64      // transient I/O rates to sweep (default 0, 0.1, 0.3)
	Permanents   []float64      // permanent corruption rates (default 0, 0.02)
	Spike        float64        // load-latency spike rate
	SpikeExtra   time.Duration  // spike magnitude (0: plan default)
	ResetAt      time.Duration  // device reset time (0: none)
}

func (c *ChaosConfig) fill() {
	if c.Model == "" {
		c.Model = "res"
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Profile.Name == "" {
		c.Profile = device.MI100()
	}
	if c.Requests <= 0 {
		c.Requests = 60
	}
	if c.MeanInterval <= 0 {
		c.MeanInterval = 2 * time.Millisecond
	}
	if c.EvictEvery == 0 {
		c.EvictEvery = 10
	}
	if c.Seed == 0 {
		// A seed whose permanent roll damages objects the default model's
		// cold path really loads, so the sweep shows the cliff-vs-graceful
		// contrast instead of faults that selective reuse never touches.
		c.Seed = 43
	}
	if c.Transients == nil {
		c.Transients = []float64{0, 0.1, 0.3}
	}
	if c.Permanents == nil {
		c.Permanents = []float64{0, 0.02}
	}
}

// chaosPolicy is one policy column of the sweep.
type chaosPolicy struct {
	Name   string
	Policy Policy // Faults is filled in per sweep cell
}

// chaosPolicies returns the compared policies: the fail-fast
// baseline, PASK with degradation disabled (the regression arm), and PASK
// with the full ladder plus per-request retries and crash recovery.
func chaosPolicies() []chaosPolicy {
	return []chaosPolicy{
		{Name: "baseline/failfast", Policy: Policy{Scheme: core.SchemeBaseline}},
		{Name: "pask/failfast", Policy: Policy{
			Scheme:  core.SchemePaSK,
			Options: core.Options{NoDegradation: true},
		}},
		{Name: "pask/resilient", Policy: Policy{
			Scheme: core.SchemePaSK,
			FT:     FaultTolerance{MaxRetries: 2, ContinueOnError: true},
		}},
	}
}

// Chaos runs the sweep: every (transient, permanent) rate pair crosses every
// policy, each cell facing the same seeded fault plan, and reports how many
// requests each policy served with what latency. The table is deterministic
// for a fixed config.
func Chaos(cfg ChaosConfig) (*experiments.Table, error) {
	cfg.fill()
	ms, err := experiments.PrepareModel(cfg.Model, cfg.Batch, cfg.Profile)
	if err != nil {
		return nil, err
	}
	table := &experiments.Table{
		ID:    "chaos",
		Title: fmt.Sprintf("fault-injection sweep, %s b%d on %s, %d requests", cfg.Model, cfg.Batch, cfg.Profile.Name, cfg.Requests),
		Headers: []string{"policy", "transient", "permanent", "served", "success",
			"cold_ms", "p99_ms", "crashes", "retries", "degraded", "outcome"},
		Notes: []string{
			"binary-shipped objects (builtins, BLAS core, residents) are exempt from corruption",
			fmt.Sprintf("seed=%d; identical plans replay identical faults across policies", cfg.Seed),
		},
	}
	trace := PoissonTrace(cfg.Requests, cfg.MeanInterval, cfg.Seed)
	for _, tr := range cfg.Transients {
		for _, pr := range cfg.Permanents {
			for _, cp := range chaosPolicies() {
				plan := faults.Plan{
					Seed:          cfg.Seed,
					TransientRate: tr,
					PermanentRate: pr,
					SpikeRate:     cfg.Spike,
					SpikeExtra:    cfg.SpikeExtra,
					DeviceResetAt: cfg.ResetAt,
				}
				pol := cp.Policy
				pol.Faults = faults.New(plan)
				stats, err := ServeTrace(ms, pol, trace, cfg.EvictEvery)
				outcome := "completed"
				if err != nil {
					outcome = "aborted"
				}
				if stats == nil {
					stats = &Stats{}
				}
				served := len(stats.Latencies)
				table.Rows = append(table.Rows, []string{
					cp.Name,
					fmt.Sprintf("%.0f%%", 100*tr),
					fmt.Sprintf("%.0f%%", 100*pr),
					fmt.Sprintf("%d/%d", served, cfg.Requests),
					fmt.Sprintf("%.1f%%", 100*float64(served)/float64(cfg.Requests)),
					fmtMs(meanDuration(stats.ColdLatencies)),
					fmtMs(stats.Percentile(0.99)),
					fmt.Sprintf("%d", stats.Crashes),
					fmt.Sprintf("%d", stats.Retries),
					fmt.Sprintf("%d", stats.DegradedLayers),
					outcome,
				})
			}
		}
	}
	return table, nil
}
