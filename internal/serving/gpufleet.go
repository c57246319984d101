package serving

import (
	"fmt"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/sim"
	"pask/internal/trace"
)

// gpuFleet is the heterogeneous multi-GPU set-up the placement and failover
// experiments share: a primary device profile paired with a cross-vendor
// secondary, every model prepared once per ISA (same-ISA GPUs share one
// store, so peer copies are byte-identical to store loads), and each
// model's object set per ISA for residency-affinity placement.
type gpuFleet struct {
	primary, secondary device.Profile
	models             []string
	setups             map[string]map[string]*experiments.ModelSetup // arch -> model -> setup
	objects            map[string]map[string][]string                // model -> arch -> object paths
}

// fleetModels resolves the models the placement and failover experiments
// serve: the explicit selection, else alex, res and vgg (alex and res at
// quick size).
func fleetModels(o experiments.Options) []string {
	if len(o.Models) > 0 {
		return o.Models
	}
	if o.Quick {
		return []string{"alex", "res"}
	}
	return []string{"alex", "res", "vgg"}
}

// newGPUFleet prepares the models on primary and its cross-vendor secondary.
func newGPUFleet(primary device.Profile, models []string, batch int) (*gpuFleet, error) {
	f := &gpuFleet{primary: primary, secondary: secondaryFor(primary), models: models,
		setups: map[string]map[string]*experiments.ModelSetup{}}
	for _, prof := range []device.Profile{f.primary, f.secondary} {
		ss, err := experiments.PrepareModelsShared(models, batch, prof)
		if err != nil {
			return nil, fmt.Errorf("serving: prepare %s: %w", prof.Name, err)
		}
		f.setups[prof.Arch] = ss
	}
	objects, err := distinctObjectsByArch(f.setups, models)
	if err != nil {
		return nil, err
	}
	f.objects = objects
	return f, nil
}

// secondaryFor pairs each primary profile with a cross-vendor secondary so
// every fleet is heterogeneous (HIP+CUDA) while still giving each ISA a
// same-arch peering twin.
func secondaryFor(primary device.Profile) device.Profile {
	if primary.Name == "A100" {
		return device.MI100()
	}
	return device.A100()
}

// distinctObjectsByArch precomputes each model's loadable object paths per
// ISA — the overlap sets residency-affinity scores candidates against.
func distinctObjectsByArch(setups map[string]map[string]*experiments.ModelSetup, models []string) (map[string]map[string][]string, error) {
	out := map[string]map[string][]string{}
	for arch, ss := range setups {
		for _, abbr := range models {
			ms := ss[abbr]
			paths, err := ms.Model.DistinctObjects(ms.Reg)
			if err != nil {
				return nil, fmt.Errorf("serving: objects %s/%s: %w", arch, abbr, err)
			}
			if out[abbr] == nil {
				out[abbr] = map[string][]string{}
			}
			out[abbr][arch] = paths
		}
	}
	return out, nil
}

// gpuSlot is one GPU of a fleet layout: the primary or the secondary
// profile, on a NUMA node of the host.
type gpuSlot struct {
	secondary bool
	node      int
}

// gpuRig is one arm's cold multi-GPU host in a fresh virtual-time env, plus
// the tenant procs the arm spawns on it.
type gpuRig struct {
	*MultiGPUHost
	fleet   *gpuFleet
	tenants *inflight
}

// rig brings up the layout's GPUs as a MultiGPUHost with slots tenant slots
// per GPU and, with peering, cross-GPU cache peering. rec, when set,
// observes every GPU's registry under a gpu<i> prefix.
func (f *gpuFleet) rig(layout []gpuSlot, slots int, peering bool, rec *trace.Recorder) *gpuRig {
	env := sim.NewEnv()
	topo := device.NewHost(env)
	for _, g := range layout {
		prof := f.primary
		if g.secondary {
			prof = f.secondary
		}
		topo.AddGPU(prof, g.node)
	}
	mh := NewMultiGPUHost(env, topo, func(arch string) *codeobj.Store {
		return f.setups[arch][f.models[0]].Store
	}, slots, peering)
	if rec != nil {
		for i := range mh.Nodes {
			mh.Nodes[i].Root().SetObserver(gpuObserver{rec: rec, idx: i})
		}
	}
	return &gpuRig{MultiGPUHost: mh, fleet: f, tenants: newInflight(env)}
}

// setup returns the model's setup compiled for GPU g's ISA.
func (r *gpuRig) setup(g int, abbr string) *experiments.ModelSetup {
	return r.fleet.setups[r.Host.GPU(g).Profile.Arch][abbr]
}

// gpuStat is one GPU's identity and registry totals at the end of an arm.
type gpuStat struct {
	driver, arch string
	node         int
	backend.Stats
}

// gpuStats folds every GPU's registry stats, in GPU order.
func (r *gpuRig) gpuStats() []gpuStat {
	out := make([]gpuStat, len(r.Nodes))
	for i := range r.Nodes {
		root := r.Nodes[i].Root()
		out[i] = gpuStat{driver: root.Driver(), arch: r.Host.GPU(i).Profile.Arch, node: r.Host.Node(i), Stats: root.Stats()}
	}
	return out
}

// serveBaseline runs one Baseline inference of ms on a tenant process,
// bringing the process up first (GPU context, then the library's resident
// kernels) when it is fresh.
func serveBaseline(p *sim.Proc, pr *experiments.Process, ms *experiments.ModelSetup, fresh bool) error {
	if fresh {
		if err := pr.Init(p); err != nil {
			return err
		}
	}
	return pr.Runner.RunBaseline(p, ms.Model)
}
