package serving

import "pask/internal/experiments"

// This file registers the serving-layer experiments on the shared menu.
// The package's init runs after internal/experiments' own registrations
// (this package imports it), so the -exp all order stays figures first,
// then chaos and multitenant — the CLI's historical sweep order.

func init() {
	experiments.Register(experiments.Experiment{
		Name: "chaos", Description: "fault-injection sweep: fault rates x recovery policies", InAll: true,
		Run: func(o experiments.Options) (*experiments.Result, error) {
			tbl, err := Chaos(ChaosConfig{})
			if err != nil {
				return nil, err
			}
			return &experiments.Result{Tables: []*experiments.Table{tbl}}, nil
		},
	})
	experiments.Register(experiments.Experiment{
		Name: "multitenant", Description: "isolated per-instance runtimes vs one shared runtime per GPU", InAll: true,
		Run: func(o experiments.Options) (*experiments.Result, error) {
			tbl, res, err := Multitenant(MultitenantConfig{Models: o.Models, Quick: o.Quick})
			if err != nil {
				return nil, err
			}
			return &experiments.Result{Tables: []*experiments.Table{tbl}, Bench: res}, nil
		},
	})
	experiments.Register(experiments.Experiment{
		Name:        "overload",
		Description: "unprotected vs shedding vs brownout arms under overload",
		Bench:       true,
		Run: func(o experiments.Options) (*experiments.Result, error) {
			cfg := OverloadConfig{Model: firstOr(o.Models, "res"), Batch: firstBatch(o.Batches), Quick: o.Quick, Rec: o.Trace}
			tbl, bench, err := Overload(cfg)
			if err != nil {
				return nil, err
			}
			return &experiments.Result{Tables: []*experiments.Table{tbl}, Bench: bench}, nil
		},
	})
	experiments.Register(experiments.Experiment{
		Name:        "cacheimage",
		Description: "pre-distributed kernel-cache images: warm attach vs cold start",
		Bench:       true,
		Run: func(o experiments.Options) (*experiments.Result, error) {
			cfg := CacheImageConfig{Model: firstOr(o.Models, ""), Batch: firstBatch(o.Batches), Quick: o.Quick, Rec: o.Trace}
			tbl, bench, err := CacheImage(cfg)
			if err != nil {
				return nil, err
			}
			return &experiments.Result{Tables: []*experiments.Table{tbl}, Bench: bench}, nil
		},
	})
	experiments.Register(experiments.Experiment{
		Name:        "placement",
		Description: "tenant-placement policies with and without cross-GPU cache peering",
		Bench:       true,
		Run: func(o experiments.Options) (*experiments.Result, error) {
			cfg := PlacementConfig{Models: o.Models, Batch: firstBatch(o.Batches), Quick: o.Quick, Rec: o.Trace}
			tbl, bench, err := Placement(cfg)
			if err != nil {
				return nil, err
			}
			return &experiments.Result{Tables: []*experiments.Table{tbl}, Bench: bench}, nil
		},
	})
	experiments.Register(experiments.Experiment{
		Name:        "predictive",
		Description: "cold vs replay vs predictive prefetch under shifting Zipf traffic",
		Bench:       true,
		Run: func(o experiments.Options) (*experiments.Result, error) {
			cfg := PredictiveConfig{Models: o.Models, Quick: o.Quick, Rec: o.Trace}
			if b := firstBatch(o.Batches); b > 1 {
				cfg.Batch = b
			}
			tbl, bench, err := Predictive(cfg)
			if err != nil {
				return nil, err
			}
			return &experiments.Result{Tables: []*experiments.Table{tbl}, Bench: bench}, nil
		},
	})
	experiments.Register(experiments.Experiment{
		Name:        "failover",
		Description: "GPU failure domains: health-monitored evacuation with warm failover",
		Bench:       true,
		Run: func(o experiments.Options) (*experiments.Result, error) {
			cfg := FailoverConfig{Models: o.Models, Batch: firstBatch(o.Batches), Quick: o.Quick, Rec: o.Trace}
			tbl, bench, err := Failover(cfg)
			if err != nil {
				return nil, err
			}
			return &experiments.Result{Tables: []*experiments.Table{tbl}, Bench: bench}, nil
		},
	})
}

// firstOr picks the first explicit model, else def.
func firstOr(models []string, def string) string {
	if len(models) > 0 {
		return models[0]
	}
	return def
}

// firstBatch picks the first explicit batch, else 1.
func firstBatch(batches []int) int {
	if len(batches) > 0 {
		return batches[0]
	}
	return 1
}
