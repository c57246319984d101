package serving

import (
	"testing"

	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/trace"
)

// The tentpole acceptance check: on every heterogeneous fleet,
// residency-affinity placement with cache peering beats naive first-fit
// without peering on mean time-to-first-inference, and peering converts
// store loads into cheaper cross-GPU fetches.
func TestPlacementAffinityPeeringBeatsFirstFit(t *testing.T) {
	res, err := Placement(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	bench := res.Bench.(*PlacementBench)
	if len(bench.Fleets) != len(device.Profiles()) {
		t.Fatalf("got %d fleets, want one per device profile (%d)", len(bench.Fleets), len(device.Profiles()))
	}
	for _, fleet := range bench.Fleets {
		base := fleet.Arm(PlaceFirstFit, false)
		best := fleet.Arm(PlaceAffinity, true)
		if base == nil || best == nil {
			t.Fatalf("%s fleet: missing arms", fleet.Primary)
		}
		if best.TTFIMeanMs >= base.TTFIMeanMs {
			t.Errorf("%s fleet: affinity+peering mean TTFI %.2fms not below first-fit %.2fms",
				fleet.Primary, best.TTFIMeanMs, base.TTFIMeanMs)
		}
		if best.PeerFetches == 0 {
			t.Errorf("%s fleet: peering arm recorded no peer fetches", fleet.Primary)
		}
		if base.PeerFetches != 0 {
			t.Errorf("%s fleet: peering-off arm recorded %d peer fetches", fleet.Primary, base.PeerFetches)
		}
		if best.ModuleLoads >= base.ModuleLoads {
			t.Errorf("%s fleet: peering did not reduce store loads (%d vs %d)",
				fleet.Primary, best.ModuleLoads, base.ModuleLoads)
		}
	}
}

// Every fleet is genuinely heterogeneous: each arm's four GPUs span both the
// hip and cuda drivers and both NUMA nodes, and per-GPU tenant counts sum to
// the arrival count.
func TestPlacementFleetsAreHeterogeneous(t *testing.T) {
	tenants := placementTenants(true)
	fleet, err := placementFleet(fleetModels(experiments.Options{Quick: true}), 1, tenants, device.MI100(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range fleet.Arms {
		drivers, nodes := map[string]bool{}, map[int]bool{}
		sum := 0
		for _, g := range arm.GPUs {
			drivers[g.Driver] = true
			nodes[g.Node] = true
			sum += g.Tenants
		}
		if !drivers["hip"] || !drivers["cuda"] {
			t.Fatalf("%s/%s/peering=%v: drivers %v, want hip and cuda",
				fleet.Primary, arm.Policy, arm.Peering, drivers)
		}
		if !nodes[0] || !nodes[1] {
			t.Fatalf("%s/%s/peering=%v: NUMA nodes %v, want 0 and 1",
				fleet.Primary, arm.Policy, arm.Peering, nodes)
		}
		if sum != tenants {
			t.Fatalf("%s/%s/peering=%v: per-GPU tenants sum to %d, want %d",
				fleet.Primary, arm.Policy, arm.Peering, sum, tenants)
		}
	}
}

// The optional recorder captures the affinity+peering arm: peer fetch
// instants, per-GPU residency gauges and per-tenant TTFI counters all land
// in the trace.
func TestPlacementRecordsTrace(t *testing.T) {
	rec := trace.New()
	tenants := placementTenants(true)
	fleet, err := placementFleet(fleetModels(experiments.Options{Quick: true}), 1, tenants, device.RX6900XT(), rec)
	if err != nil {
		t.Fatal(err)
	}
	arm := fleet.Arm(PlaceAffinity, true)
	if arm.PeerFetches == 0 {
		t.Fatal("recorded arm has no peer fetches; trace assertions vacuous")
	}
	instants, ttfis := 0, 0
	gauge, sampled := 0.0, false
	for _, ev := range chromeEvents(t, rec) {
		switch {
		case ev.Ph == "i" && ev.Track == "registry" && ev.Name == "peer_fetch":
			instants++
		case ev.Ph == "C" && ev.Name == "placement_peer_fetches":
			gauge, sampled = ev.Value, true
		case ev.Ph == "C" && ev.Name == "placement_ttfi_ms":
			ttfis++
		}
	}
	if instants != arm.PeerFetches {
		t.Fatalf("trace has %d peer_fetch instants, arm counted %d", instants, arm.PeerFetches)
	}
	// Identical consecutive TTFI values collapse, so samples ≤ tenants.
	if ttfis == 0 || ttfis > tenants {
		t.Fatalf("trace has %d placement_ttfi_ms samples, want 1..%d", ttfis, tenants)
	}
	if !sampled || int(gauge) != arm.PeerFetches {
		t.Fatalf("placement_peer_fetches gauge = %v (sampled=%v), want %d", gauge, sampled, arm.PeerFetches)
	}
}
