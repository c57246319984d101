package serving

import "pask/internal/experiments"

// This file registers the serving-layer experiments on the shared menu.
// The package's init runs after internal/experiments' own registrations
// (this package imports it), so the -exp all order stays figures first,
// then chaos and multitenant — the CLI's historical sweep order.

func init() {
	experiments.Register(experiments.Experiment{
		Name: "chaos", Description: "fault-injection sweep: fault rates x recovery policies", InAll: true,
		Run: func(o experiments.Options) (*experiments.Result, error) { return Chaos(o, nil) },
	})
	experiments.Register(experiments.Experiment{
		Name: "multitenant", Description: "isolated per-instance runtimes vs one shared runtime per GPU", InAll: true,
		Run: Multitenant,
	})
	experiments.Register(experiments.Experiment{
		Name:        "overload",
		Description: "unprotected vs shedding vs brownout arms under overload",
		Bench:       true,
		Run:         Overload,
	})
	experiments.Register(experiments.Experiment{
		Name:        "cacheimage",
		Description: "pre-distributed kernel-cache images: warm attach vs cold start",
		Bench:       true,
		Run:         CacheImage,
	})
	experiments.Register(experiments.Experiment{
		Name:        "placement",
		Description: "tenant-placement policies with and without cross-GPU cache peering",
		Bench:       true,
		Run:         Placement,
	})
	experiments.Register(experiments.Experiment{
		Name:        "predictive",
		Description: "cold vs replay vs predictive prefetch under shifting Zipf traffic",
		Bench:       true,
		Run:         Predictive,
	})
	experiments.Register(experiments.Experiment{
		Name:        "failover",
		Description: "GPU failure domains: health-monitored evacuation with warm failover",
		Bench:       true,
		Run:         Failover,
	})
}
