package serving

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/sim"
)

// The failover experiment's own acceptance bar — zero failed requests and
// warm evacuation strictly below cold respawn — must hold on every paper
// profile. Failover() already errors on violations; this test re-asserts the
// bar independently against the bench payload so a regression in the
// experiment's self-checks cannot silently pass.
func TestFailoverWarmBeatsColdOnAllProfiles(t *testing.T) {
	res, err := Failover(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	bench := res.Bench.(*FailoverBench)
	if len(bench.Fleets) != len(device.Profiles()) {
		t.Fatalf("ran %d fleets, want one per paper profile (%d)", len(bench.Fleets), len(device.Profiles()))
	}
	for _, fleet := range bench.Fleets {
		for _, arm := range fleet.Arms {
			if arm.Failed != 0 {
				t.Errorf("%s/%s: %d failed requests, want 0", fleet.Primary, arm.Name, arm.Failed)
			}
			if arm.Served+arm.Evacuated+arm.Failed != bench.Tenants*bench.Requests {
				t.Errorf("%s/%s: served %d + evacuated %d + failed %d != %d requests",
					fleet.Primary, arm.Name, arm.Served, arm.Evacuated, arm.Failed, bench.Tenants*bench.Requests)
			}
			if arm.Evacuated == 0 {
				t.Errorf("%s/%s: no requests were served post-evacuation", fleet.Primary, arm.Name)
			}
		}
		cold, warm := fleet.Arm(armColdRespawn), fleet.Arm(armWarmFailover)
		if cold == nil || warm == nil {
			t.Fatalf("%s: missing death arms", fleet.Primary)
		}
		if warm.MeanEvacMs >= cold.MeanEvacMs {
			t.Errorf("%s: warm evacuation TTFI %.2fms not strictly below cold respawn %.2fms",
				fleet.Primary, warm.MeanEvacMs, cold.MeanEvacMs)
		}
		if warm.PeerFetches == 0 || warm.ImageAttaches == 0 {
			t.Errorf("%s: warm arm salvaged nothing (peer_fetches=%d image_attaches=%d)",
				fleet.Primary, warm.PeerFetches, warm.ImageAttaches)
		}
		if cold.PeerFetches != 0 {
			t.Errorf("%s: cold arm peer-fetched %d modules with peering off", fleet.Primary, cold.PeerFetches)
		}
		// The dead GPU must end dead; nothing may resurrect it.
		for _, arm := range []*FailoverArm{cold, warm} {
			if got := arm.GPUs[failoverVictim].FinalState; got != GPUDead.String() {
				t.Errorf("%s/%s: victim ended %q, want %q", fleet.Primary, arm.Name, got, GPUDead)
			}
		}
		if flap := fleet.Arm(armLinkFlap); flap.PeerFetchFails == 0 {
			t.Errorf("%s: link-flap arm saw no peer-fetch fallbacks", fleet.Primary)
		}
		if deg := fleet.Arm(armDegraded); deg.GPUs[failoverVictim].FinalState != GPUHealthy.String() {
			t.Errorf("%s: degraded GPU ended %q, want probation rejoin to %q",
				fleet.Primary, deg.GPUs[failoverVictim].FinalState, GPUHealthy)
		}
	}
}

// TestFailoverRetrySchedule pins the tenants' retry loop, which none of the
// experiment's arms exercises: a transient storm on the victim GPU that the
// registry's own retries cannot absorb fails requests, which retry with the
// tenant's seeded backoff. The served requests' mean TTFI includes those
// waits, so it pins the schedule.
func TestFailoverRetrySchedule(t *testing.T) {
	f, err := newGPUFleet(device.MI100(), fleetModels(experiments.Options{Quick: true}), 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := failoverScenario{name: "transient", faults: &gpuFaults{seed: 3, degradeGPU: failoverVictim,
		transient: 0.7, burst: 8, degradeUntil: 250 * time.Millisecond}}
	arm, err := runFailoverArm(f, failoverRequests(true), nil, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := [...]any{arm.Served, arm.Evacuated, arm.Failed, arm.Evacuations, arm.MeanTTFIMs, arm.MeanEvacMs, arm.ModuleLoads}
	want := [...]any{28, 2, 0, 2, 80.428087, 124.135989, 96}
	if got != want {
		t.Fatalf("served, evacuated, failed, evacuations, ttfi, evac ttfi, loads = %v, want %v", got, want)
	}
}

// TestFailoverRegistered checks the experiment is on the shared menu as a
// single-run bench experiment (excluded from -exp all, like the other
// serving sweeps).
func TestFailoverRegistered(t *testing.T) {
	exp, ok := experiments.Lookup("failover")
	if !ok {
		t.Fatal("failover not registered")
	}
	if !exp.Bench {
		t.Error("failover must declare a bench payload")
	}
	if exp.InAll {
		t.Error("failover is a single-run robustness sweep and must stay out of -exp all")
	}
}

// failoverTestHost builds a minimal two-GPU host over a real prepared model
// store, without running any tenants — enough registry for the monitor to
// scrape.
func failoverTestHost(t *testing.T) (*sim.Env, *MultiGPUHost) {
	t.Helper()
	prof := device.MI100()
	setups, err := experiments.PrepareModelsShared([]string{"alex"}, 1, prof)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	topo := device.NewHost(env)
	topo.AddGPU(prof, 0)
	topo.AddGPU(prof, 1)
	mh := NewMultiGPUHost(env, topo, func(string) *codeobj.Store {
		return setups["alex"].Store
	}, 1, false)
	return env, mh
}

// The monitor's ladder: healthy → degraded on one bad tick, → quarantined on
// persistence, clean probation → rejoin; device loss is terminal and fires
// evacuation exactly once. Driven white-box through poll() with synthetic
// error deltas so every edge is deterministic.
func TestHealthMonitorLadder(t *testing.T) {
	_, mh := failoverTestHost(t)
	hm := NewHealthMonitor(mh, nil)
	var evacuated []int
	hm.OnEvacuate = func(gpu int, state GPUHealthState) { evacuated = append(evacuated, gpu) }

	if mh.health != hm {
		t.Fatal("NewHealthMonitor did not install itself on the host")
	}
	if hm.State(0) != GPUHealthy || !mh.Usable(0) {
		t.Fatalf("fresh GPU not healthy: %v", hm.State(0))
	}

	// A synthetic error delta: poll computes current-minus-last, so a
	// negative last is a positive delta without touching the registry.
	bump := func(i int) { hm.last[i].FailedLoads-- }

	now := time.Millisecond
	tick := func(bad bool) {
		if bad {
			bump(0)
		}
		now += 2 * time.Millisecond
		hm.poll(now, 0)
	}

	tick(true)
	if hm.State(0) != GPUDegraded {
		t.Fatalf("one bad tick → %v, want degraded", hm.State(0))
	}
	if !mh.Usable(0) {
		t.Fatal("a degraded GPU must stay usable")
	}
	// One clean tick is not enough to recover; a second bad tick resumes the
	// climb and the next one quarantines.
	tick(false)
	if hm.State(0) != GPUDegraded {
		t.Fatalf("one clean tick de-escalated to %v", hm.State(0))
	}
	tick(true)
	tick(true)
	if hm.State(0) != GPUQuarantined {
		t.Fatalf("persistent degradation → %v, want quarantined", hm.State(0))
	}
	if mh.Usable(0) {
		t.Fatal("a quarantined GPU must not be usable")
	}
	if len(evacuated) != 1 || evacuated[0] != 0 || hm.Evacuations() != 1 {
		t.Fatalf("quarantine evacuation: OnEvacuate=%v Evacuations=%d", evacuated, hm.Evacuations())
	}
	// Pick must route around the quarantined GPU.
	if g := mh.Pick(PlaceFirstFit, nil); g != 1 {
		t.Fatalf("Pick chose quarantined gpu%d", g)
	}
	// Clean ticks alone cannot rejoin before probation is served.
	quarAt := hm.quarAt[0]
	tick(false)
	tick(false)
	if hm.State(0) != GPUQuarantined {
		t.Fatalf("rejoined after %v, before the %v probation", hm.State(0), healthProbation)
	}
	for i := 0; hm.State(0) == GPUQuarantined && i < 20; i++ {
		tick(false)
	}
	if hm.State(0) != GPUHealthy {
		t.Fatalf("clean probation → %v, want healthy rejoin", hm.State(0))
	}
	if now-quarAt < healthProbation {
		t.Fatalf("rejoined %v after quarantine, inside the %v probation", now-quarAt, healthProbation)
	}
	if !mh.Usable(0) || hm.Evacuations() != 1 {
		t.Fatal("rejoined GPU not usable, or rejoin miscounted as evacuation")
	}

	// Device loss is terminal: dead on the next poll, evacuated once, and
	// usability drops immediately — before the poll even runs.
	mh.Nodes[0].Root().MarkDeviceLost()
	if mh.Usable(0) {
		t.Fatal("driver-lost GPU still usable before the next poll")
	}
	tick(false)
	if hm.State(0) != GPUDead {
		t.Fatalf("device loss → %v, want dead", hm.State(0))
	}
	if len(evacuated) != 2 || hm.Evacuations() != 2 {
		t.Fatalf("death evacuation: OnEvacuate=%v Evacuations=%d", evacuated, hm.Evacuations())
	}
	tick(false)
	tick(false)
	tick(false)
	if hm.State(0) != GPUDead {
		t.Fatalf("dead GPU left the terminal state: %v", hm.State(0))
	}
	if len(evacuated) != 2 {
		t.Fatalf("dead GPU re-fired evacuation: %v", evacuated)
	}
	if hm.State(1) != GPUHealthy {
		t.Fatal("the healthy neighbor was dragged along")
	}
}

// recordEvacuated must count apart from every other leg of the accounting
// invariant: not a served latency, not a failure, its own mean.
func TestStatsEvacuatedLeg(t *testing.T) {
	var s Stats
	s.Latencies = append(s.Latencies, 2*time.Millisecond)
	s.recordFailure(1, codeobj.ErrIO)
	s.recordEvacuated(30 * time.Millisecond)
	s.recordEvacuated(50 * time.Millisecond)

	if s.Evacuated != 2 || len(s.EvacLatencies) != 2 {
		t.Fatalf("Evacuated=%d EvacLatencies=%v", s.Evacuated, s.EvacLatencies)
	}
	if len(s.Latencies) != 1 || s.Failed != 1 {
		t.Fatalf("evacuated requests leaked into another leg: served=%d failed=%d", len(s.Latencies), s.Failed)
	}
	if got := len(s.Latencies) + s.Failed + s.Shed + s.BreakerRejected + s.Evacuated; got != 4 {
		t.Fatalf("invariant sum = %d, want 4", got)
	}
	if s.MeanEvac() != 40*time.Millisecond {
		t.Fatalf("MeanEvac = %v, want 40ms", s.MeanEvac())
	}
	if s.Mean() != 2*time.Millisecond {
		t.Fatalf("evacuation latencies polluted Mean: %v", s.Mean())
	}
	var empty Stats
	if empty.MeanEvac() != 0 {
		t.Fatalf("MeanEvac on empty stats = %v", empty.MeanEvac())
	}
}

// TestFailoverGPUDeathArmsOnce pins the scheduled kill: it fires once, at
// its time, on its GPU, however often the arm is re-armed.
func TestFailoverGPUDeathArmsOnce(t *testing.T) {
	env := sim.NewEnv()
	g := &gpuFaults{killAt: 5 * time.Millisecond, killGPU: 1}
	kills := 0
	for range 2 {
		for i := range 3 {
			g.armDeath(env, i, func() {
				if i != 1 {
					t.Errorf("kill fired on gpu%d, want gpu1", i)
				}
				if env.Now() != 5*time.Millisecond {
					t.Errorf("kill fired at %v, want 5ms", env.Now())
				}
				kills++
			})
		}
	}
	(&gpuFaults{}).armDeath(env, 0, func() { t.Error("zero gpuFaults killed a GPU") })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if kills != 1 {
		t.Fatalf("kill fired %d times, want 1", kills)
	}
}

// TestFailoverDegradationScope pins the ECC degradation: it scales loads
// and fails them only on its GPU and only before its window closes, with
// typed errors whose consecutive run per path the burst cap breaks.
func TestFailoverDegradationScope(t *testing.T) {
	const until = 30 * time.Millisecond
	g := &gpuFaults{seed: 3, degradeGPU: 1, factor: 4, transient: 1, degradeUntil: until}
	sick, healthy := g.view(1), g.view(0)
	for _, c := range []struct {
		v    backend.FaultInjector
		now  time.Duration
		want float64
	}{{sick, 0, 4}, {sick, until - 1, 4}, {sick, until, 1}, {healthy, 0, 1}} {
		if got := c.v.LoadLatencyScale(c.now); got != c.want {
			t.Errorf("scale at %v = %v, want %v", c.now, got, c.want)
		}
	}
	if err := healthy.ExtraLoadError(0, "m.pko"); err != nil {
		t.Fatalf("healthy GPU saw degradation error %v", err)
	}
	if err := sick.ExtraLoadError(until, "m.pko"); err != nil {
		t.Fatalf("degradation error after the window: %v", err)
	}
	data := []byte{1}
	if got, err := sick.StoreGet("m.pko", data); err != nil || &got[0] != &data[0] || sick.ExtraLoadLatency(0, "m.pko") != 0 {
		t.Fatal("a degraded GPU's store reads and load latency must pass through")
	}

	// Default burst cap 2: at rate 1 every third consecutive load passes.
	for i, want := range []bool{true, true, false, true} {
		err := sick.ExtraLoadError(10*time.Millisecond, "m.pko")
		if (err != nil) != want {
			t.Fatalf("load %d: err %v, want failure %v", i, err, want)
		}
		if err != nil && (!errors.Is(err, codeobj.ErrIO) || !strings.Contains(err.Error(), "gpu1")) {
			t.Fatalf("degradation error %q is not a typed I/O error naming gpu1", err)
		}
	}
	capped := &gpuFaults{degradeGPU: 0, transient: 1, degradeUntil: until, burst: 3}
	fails := 0
	for capped.view(0).ExtraLoadError(0, "m.pko") != nil {
		fails++
	}
	if fails != 3 {
		t.Fatalf("burst 3 allowed %d consecutive failures", fails)
	}
}

// TestFailoverLinkFlapScope pins the link flap: only links that touch its
// GPU fail, and only inside [from, until).
func TestFailoverLinkFlapScope(t *testing.T) {
	g := &gpuFaults{flapGPU: 1, flapFrom: 20 * time.Millisecond, flapUntil: 40 * time.Millisecond}
	for _, c := range []struct {
		now  time.Duration
		i, j int
		want bool
	}{
		{20 * time.Millisecond, 1, 3, true},
		{39 * time.Millisecond, 0, 1, true},
		{10 * time.Millisecond, 0, 1, false},
		{40 * time.Millisecond, 0, 1, false},
		{30 * time.Millisecond, 0, 2, false},
	} {
		if got := g.linkDown(c.now, c.i, c.j); got != c.want {
			t.Errorf("linkDown(%v, %d, %d) = %v, want %v", c.now, c.i, c.j, got, c.want)
		}
	}
	if (&gpuFaults{}).linkDown(0, 0, 1) {
		t.Fatal("zero gpuFaults flapped a link")
	}
}
