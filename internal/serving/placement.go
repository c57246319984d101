package serving

import (
	"fmt"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
	"pask/internal/trace"
)

// PlacementPolicy selects which GPU of a multi-GPU host a newly arriving
// tenant attaches to. Placement decides cold-start cost before a single
// module loads: landing a model next to its resident kernels is the
// cheapest load there is (the serverless-LLM observation that locality
// dominates startup; PAPERS.md).
type PlacementPolicy string

const (
	// PlaceFirstFit picks the lowest-index GPU with a free tenant slot —
	// the naive scheduler that ignores residency entirely.
	PlaceFirstFit PlacementPolicy = "first-fit"
	// PlaceAffinity picks the free GPU whose resident modules overlap the
	// arriving model's object set the most: tenants land where their
	// kernels already are.
	PlaceAffinity PlacementPolicy = "residency-affinity"
	// PlaceBalanced picks the free GPU with the fewest active tenants,
	// spreading load evenly without looking at residency.
	PlaceBalanced PlacementPolicy = "load-balanced"
)

// PlacementPolicies returns all policies in presentation order.
func PlacementPolicies() []PlacementPolicy {
	return []PlacementPolicy{PlaceFirstFit, PlaceAffinity, PlaceBalanced}
}

// MultiGPUHost is a server with several GPUs — possibly of different
// vendors — each carrying its own shared tenant runtime (flavored per the
// device's ISA) and categorical cache, connected by the host's PCIe/NUMA
// link model. It adds two levers a single GPUHost cannot express: the
// placement policy (which GPU gets which tenant) and cross-GPU cache
// peering (a load miss served by a same-ISA neighbor's resident copy over
// the interconnect when that beats re-reading the store).
type MultiGPUHost struct {
	Env   *sim.Env
	Host  *device.Host
	Nodes []*GPUHost // one shared-runtime host per GPU, same index as Host

	slots  int   // tenant slots per GPU
	active []int // live tenants per GPU

	// health, when set (NewHealthMonitor installs itself), gates placement
	// and peering on per-GPU health: quarantined and dead devices take no
	// new tenants and serve no peer copies. links, when set, fails peer
	// transfers over flapping links.
	health *HealthMonitor
	links  *gpuFaults
}

// NewMultiGPUHost builds a cold multi-GPU serving host over topo. Each GPU
// gets a shared runtime over storeFor(arch) whose flavor follows the ISA —
// same-ISA GPUs must share one store so peer copies are byte-identical to
// store loads. slotsPerGPU bounds how many tenants placement packs onto one
// device; peering installs the cross-GPU peer source on every runtime.
func NewMultiGPUHost(env *sim.Env, topo *device.Host, storeFor func(arch string) *codeobj.Store, slotsPerGPU int, peering bool) *MultiGPUHost {
	mh := &MultiGPUHost{
		Env:    env,
		Host:   topo,
		slots:  slotsPerGPU,
		active: make([]int, topo.NumGPUs()),
	}
	for i := 0; i < topo.NumGPUs(); i++ {
		gpu := topo.GPU(i)
		arch := gpu.Profile.Arch
		mh.Nodes = append(mh.Nodes, NewGPUHost(backend.New(env, gpu, device.DefaultHost(), storeFor(arch), backend.FlavorFor(arch))))
	}
	if peering {
		for i := range mh.Nodes {
			mh.Nodes[i].Root().SetPeers(&peerSource{mh: mh, idx: i})
		}
	}
	return mh
}

// Usable reports whether GPU i may take tenants and serve peer copies: not
// driver-lost — even before the next health poll notices — and, with a
// health monitor installed, not quarantined or dead on the health ladder.
func (mh *MultiGPUHost) Usable(i int) bool {
	if mh.Nodes[i].Root().DeviceLost() {
		return false
	}
	return mh.health == nil || mh.health.State(i).Usable()
}

// Acquire claims a tenant slot on GPU i; Release frees it.
func (mh *MultiGPUHost) Acquire(i int) { mh.active[i]++ }

// Release frees a tenant slot on GPU i.
func (mh *MultiGPUHost) Release(i int) { mh.active[i]-- }

// CloseAll closes every stream of every GPU, including per-tenant streams.
// Call exactly once, after all tenants finished.
func (mh *MultiGPUHost) CloseAll() { mh.Host.CloseAll() }

// Pick chooses the GPU for an arriving tenant under the given policy.
// objectsByArch maps each ISA to the object paths the tenant's model loads
// when compiled for that ISA (residency-affinity scores candidates of
// different vendors against the right object set). Quarantined and dead
// GPUs are never candidates while any usable GPU survives. Usable GPUs
// with a free slot are preferred; when every usable slot is taken the
// policy ranks all usable GPUs, so arrival bursts overflow instead of
// blocking.
func (mh *MultiGPUHost) Pick(policy PlacementPolicy, objectsByArch map[string][]string) int {
	usable := make([]int, 0, len(mh.Nodes))
	for i := range mh.Nodes {
		if mh.Usable(i) {
			usable = append(usable, i)
		}
	}
	if len(usable) == 0 {
		// Every device is down: keep the historical deterministic answer
		// rather than deadlock — the caller's load will fail typed.
		for i := range mh.Nodes {
			usable = append(usable, i)
		}
	}
	candidates := make([]int, 0, len(usable))
	for _, i := range usable {
		if mh.active[i] < mh.slots {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		candidates = usable
	}
	best := candidates[0]
	switch policy {
	case PlaceAffinity:
		bestOverlap := -1
		for _, i := range candidates {
			root := mh.Nodes[i].Root()
			overlap := 0
			for _, path := range objectsByArch[root.GPU().Profile.Arch] {
				if root.Loaded(path) {
					overlap++
				}
			}
			if overlap > bestOverlap {
				bestOverlap, best = overlap, i
			}
		}
	case PlaceBalanced:
		for _, i := range candidates[1:] {
			if mh.active[i] < mh.active[best] {
				best = i
			}
		}
	default: // PlaceFirstFit: lowest index wins
	}
	return best
}

// peerSource implements backend.PeerSource for one GPU of a MultiGPUHost:
// a load miss may be served by the cheapest same-ISA neighbor holding the
// module resident, priced by the host's PCIe/NUMA link model.
type peerSource struct {
	mh  *MultiGPUHost
	idx int
}

// PeerLookup returns the cheapest same-ISA peer copy of path, if any.
// Quarantined and dead peers serve nothing (their registries may be empty
// or lying), and a transfer over a down link is offered with the error
// that makes the registry fall back to a local demand load.
func (ps *peerSource) PeerLookup(path string) (backend.PeerModule, bool) {
	arch := ps.mh.Host.GPU(ps.idx).Profile.Arch
	var best backend.PeerModule
	found := false
	for j := range ps.mh.Nodes {
		if j == ps.idx || ps.mh.Host.GPU(j).Profile.Arch != arch || !ps.mh.Usable(j) {
			continue
		}
		obj, ok := ps.mh.Nodes[j].Root().ResidentObject(path)
		if !ok {
			continue
		}
		cost := ps.mh.Host.PeerCopyTime(j, ps.idx, int64(obj.Size()))
		if !found || cost < best.Cost {
			best = backend.PeerModule{Object: obj, Cost: cost}
			found = true
			if ps.mh.links != nil && ps.mh.links.linkDown(ps.mh.Env.Now(), j, ps.idx) {
				best.Err = fmt.Errorf("serving: link gpu%d<->gpu%d down", j, ps.idx)
			}
		}
	}
	return best, found
}

// gpuObserver forwards one GPU's registry events into a shared recorder,
// prefixing gauge series with the GPU index so two same-flavor devices do
// not collapse into one series.
type gpuObserver struct {
	rec *trace.Recorder
	idx int
}

func (o gpuObserver) RegistryEvent(kind, path string, at time.Duration) {
	o.rec.RegistryEvent(kind, fmt.Sprintf("gpu%d:%s", o.idx, path), at)
}

func (o gpuObserver) RegistrySample(name string, at time.Duration, value float64) {
	o.rec.RegistrySample(fmt.Sprintf("gpu%d_%s", o.idx, name), at, value)
}
