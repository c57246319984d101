package serving

import (
	"fmt"
	"strings"
	"time"

	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/sim"
	"pask/internal/trace"
)

// The placement scenario's fixed arrival schedule.
const (
	placementInterval = 100 * time.Millisecond // arrival gap
	placementDwell    = 150 * time.Millisecond // how long a tenant holds its slot after TTFI
	placementSlots    = 1                      // tenant slots per GPU
)

// placementTenants is the arrival count per arm.
func placementTenants(quick bool) int {
	if quick {
		return 9
	}
	return 18
}

// PlacementGPU is one device's share of an arm's outcome.
type PlacementGPU struct {
	Driver      string `json:"driver"`
	Arch        string `json:"arch"`
	Node        int    `json:"node"`
	Tenants     int    `json:"tenants"`
	ModuleLoads int    `json:"module_loads"`
	PeerFetches int    `json:"peer_fetches"`
}

// PlacementArm is the outcome of one policy × peering combination on one
// fleet.
type PlacementArm struct {
	Policy      string         `json:"policy"`
	Peering     bool           `json:"peering"`
	TTFIMeanMs  float64        `json:"ttfi_mean_ms"`
	TTFIMaxMs   float64        `json:"ttfi_max_ms"`
	ModuleLoads int            `json:"module_loads"`
	BytesLoaded int64          `json:"bytes_loaded"`
	PeerFetches int            `json:"peer_fetches"`
	PeerBytes   int64          `json:"peer_bytes"`
	LoadTimeMs  float64        `json:"load_time_ms"`
	GPUs        []PlacementGPU `json:"gpus"`
}

// PlacementFleet is one heterogeneous fleet's full comparison: the primary
// profile (×2) plus the cross-vendor secondary (×2), across every policy ×
// peering combination.
type PlacementFleet struct {
	Primary   string         `json:"primary"`
	Secondary string         `json:"secondary"`
	Arms      []PlacementArm `json:"arms"`
}

// Arm returns the arm for (policy, peering), or nil.
func (f *PlacementFleet) Arm(policy PlacementPolicy, peering bool) *PlacementArm {
	for i := range f.Arms {
		if f.Arms[i].Policy == string(policy) && f.Arms[i].Peering == peering {
			return &f.Arms[i]
		}
	}
	return nil
}

// PlacementBench is the machine-readable payload of the experiment
// (BENCH_placement.json).
type PlacementBench struct {
	Models   []string         `json:"models"`
	Batch    int              `json:"batch"`
	Tenants  int              `json:"tenants"`
	Slots    int              `json:"slots_per_gpu"`
	IntervMs float64          `json:"interval_ms"`
	DwellMs  float64          `json:"dwell_ms"`
	Fleets   []PlacementFleet `json:"fleets"`
}

// Placement runs the placement × peering comparison: for each primary
// profile, a four-GPU heterogeneous fleet (two primary + two secondary,
// split across NUMA nodes) serves a deterministic arrival sequence of model
// tenants under every placement policy with cache peering off and on.
// Time-to-first-inference is measured per tenant from arrival to the end of
// its first request, the fleet-level cold-start quantity placement
// controls. Arrivals cycle through o.Models (default alex, res, vgg; quick
// alex, res) at the first selected batch (default and minimum 1); o.Quick
// halves the arrivals, and o.Trace records the first fleet's
// affinity+peering arm. The result carries the table and a
// *PlacementBench.
func Placement(o experiments.Options) (*experiments.Result, error) {
	models := fleetModels(o)
	batch, tenants := max(o.Batch(), 1), placementTenants(o.Quick)
	bench := &PlacementBench{
		Models: models, Batch: batch, Tenants: tenants, Slots: placementSlots,
		IntervMs: millis(placementInterval), DwellMs: millis(placementDwell),
	}
	table := &experiments.Table{
		ID: "placement",
		Title: fmt.Sprintf("tenant placement × cache peering on heterogeneous 4-GPU fleets (%s, %d arrivals, %d slot/GPU)",
			strings.Join(models, "+"), tenants, placementSlots),
		Headers: []string{"fleet", "policy", "peering", "ttfi_mean_ms", "ttfi_max_ms", "loads", "peer_fetches"},
	}

	for fi, primary := range device.Profiles() {
		var rec *trace.Recorder
		if fi == 0 {
			rec = o.Trace
		}
		fleet, err := placementFleet(models, batch, tenants, primary, rec)
		if err != nil {
			return nil, err
		}
		for _, arm := range fleet.Arms {
			table.Rows = append(table.Rows, []string{
				fleet.Primary + "+" + fleet.Secondary, arm.Policy, fmt.Sprint(arm.Peering),
				fmt.Sprintf("%.2f", arm.TTFIMeanMs), fmt.Sprintf("%.2f", arm.TTFIMaxMs),
				fmt.Sprint(arm.ModuleLoads), fmt.Sprint(arm.PeerFetches),
			})
		}
		base := fleet.Arm(PlaceFirstFit, false)
		best := fleet.Arm(PlaceAffinity, true)
		table.Notes = append(table.Notes, fmt.Sprintf(
			"%s fleet: residency-affinity+peering %.2fms vs first-fit %.2fms mean TTFI (%.1f%% lower)",
			primary.Name, best.TTFIMeanMs, base.TTFIMeanMs, 100*(1-best.TTFIMeanMs/base.TTFIMeanMs)))
		bench.Fleets = append(bench.Fleets, *fleet)
	}
	return &experiments.Result{Tables: []*experiments.Table{table}, Bench: bench}, nil
}

// placementFleet runs every policy × peering arm, each serving `tenants`
// arrivals of models, on the heterogeneous fleet of one primary profile.
// rec, when set, records the affinity+peering arm.
func placementFleet(models []string, batch, tenants int, primary device.Profile, rec *trace.Recorder) (*PlacementFleet, error) {
	f, err := newGPUFleet(primary, models, batch)
	if err != nil {
		return nil, err
	}
	fleet := &PlacementFleet{Primary: f.primary.Name, Secondary: f.secondary.Name}
	for _, policy := range PlacementPolicies() {
		for _, peering := range []bool{false, true} {
			var armRec *trace.Recorder
			if policy == PlaceAffinity && peering {
				armRec = rec
			}
			arm, err := runPlacementArm(f, tenants, policy, peering, armRec)
			if err != nil {
				return nil, fmt.Errorf("serving: placement %s/%s/peering=%v: %w", primary.Name, policy, peering, err)
			}
			fleet.Arms = append(fleet.Arms, *arm)
		}
	}
	return fleet, nil
}

// runPlacementArm serves one deterministic sequence of `tenants` arrivals,
// cycling through the fleet's models, on a fresh fleet under one policy ×
// peering combination and aggregates TTFI and registry activity.
func runPlacementArm(f *gpuFleet, tenants int, policy PlacementPolicy, peering bool, rec *trace.Recorder) (*PlacementArm, error) {
	// Two primary GPUs and two secondary GPUs, each vendor pair split across
	// the host's NUMA nodes: every ISA has a peering twin, and twin traffic
	// exercises the cross-node link discount.
	rig := f.rig([]gpuSlot{{false, 0}, {false, 1}, {true, 0}, {true, 1}}, placementSlots, peering, rec)
	var (
		ttfis     []time.Duration
		perGPU    = make([]int, len(rig.Nodes))
		firstErr  error
		recordErr = func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
	)
	rig.Env.Spawn("placement-driver", func(p *sim.Proc) {
		for t := 0; t < tenants; t++ {
			abbr := f.models[t%len(f.models)]
			g := rig.Pick(policy, f.objects[abbr])
			rig.Acquire(g)
			perGPU[g]++
			node := rig.Nodes[g]
			ms := rig.setup(g, abbr)
			name := fmt.Sprintf("%s/%d", abbr, t)
			rig.tenants.spawn("tenant-"+name, func(p *sim.Proc) {
				defer rig.Release(g)
				pr := ms.AttachIn(node.Root(), name)
				defer pr.RT.Detach()
				t0 := p.Now()
				if err := serveBaseline(p, pr, ms, true); err != nil {
					recordErr(err)
					return
				}
				ttfi := p.Now() - t0
				ttfis = append(ttfis, ttfi)
				if rec != nil {
					rec.Count("placement_ttfi_ms", p.Now(), millis(ttfi))
				}
				p.Sleep(placementDwell)
			})
			p.Sleep(placementInterval)
		}
		rig.tenants.close()
		rig.tenants.wait(p)
		rig.CloseAll()
	})
	if err := rig.Env.Run(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if len(ttfis) != tenants {
		return nil, fmt.Errorf("serving: placement arm finished %d/%d tenants", len(ttfis), tenants)
	}

	arm := &PlacementArm{Policy: string(policy), Peering: peering}
	var sum, max time.Duration
	for _, d := range ttfis {
		sum += d
		if d > max {
			max = d
		}
	}
	arm.TTFIMeanMs = float64(sum) / float64(len(ttfis)) / 1e6
	arm.TTFIMaxMs = millis(max)
	for i, g := range rig.gpuStats() {
		arm.ModuleLoads += g.ModuleLoads
		arm.BytesLoaded += g.BytesLoaded
		arm.PeerFetches += g.PeerFetches
		arm.PeerBytes += g.PeerBytes
		arm.LoadTimeMs += millis(g.LoadTimeTotal)
		arm.GPUs = append(arm.GPUs, PlacementGPU{
			Driver: g.driver, Arch: g.arch, Node: g.node,
			Tenants: perGPU[i], ModuleLoads: g.ModuleLoads, PeerFetches: g.PeerFetches,
		})
	}
	if rec != nil {
		rec.Count("placement_peer_fetches", rig.Env.Now(), float64(arm.PeerFetches))
		rec.Count("placement_module_loads", rig.Env.Now(), float64(arm.ModuleLoads))
	}
	return arm, nil
}
