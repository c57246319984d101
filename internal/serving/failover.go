package serving

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"pask/internal/backend"
	"pask/internal/cacheimg"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/sim"
	"pask/internal/trace"
	"pask/internal/warmup"
)

// The failover scenario's fixed timeline.
const (
	failoverInterval = 4 * time.Millisecond  // tenant arrival gap
	failoverGap      = 6 * time.Millisecond  // think time between a tenant's requests
	failoverKillAt   = 45 * time.Millisecond // when the victim GPU falls off the bus
	// failoverFlapFor is the link-flap window from failoverKillAt. It must
	// cover the evacuees' first loads on the spare, which trail the kill by
	// a full context init (tens of ms on every profile).
	failoverFlapFor = 150 * time.Millisecond
	// failoverDegrade is the ECC-degradation window. It is long enough that
	// the victim's first module loads, which start only after tens of ms of
	// context init (110ms on the 6900XT), fall inside it on every profile
	// with room for the error cadence to trip the monitor.
	failoverDegrade = 250 * time.Millisecond
	// failoverSettle is the post-stream dwell so quarantined GPUs can rejoin.
	failoverSettle = 40 * time.Millisecond
)

// failoverRequests is each tenant's request count.
func failoverRequests(quick bool) int {
	if quick {
		return 5
	}
	return 8
}

// failoverTenants is the arrival count: one tenant per model on each of the
// three hosting GPUs (the spare starts empty by design).
func failoverTenants(models []string) int { return 3 * len(models) }

// failoverSlots is each GPU's tenant capacity: every model plus one, so the
// spare can absorb a whole evacuated GPU.
func failoverSlots(models []string) int { return len(models) + 1 }

// FailoverGPU is one device's share of an arm's outcome, including where it
// ended on the health ladder.
type FailoverGPU struct {
	Driver         string `json:"driver"`
	Arch           string `json:"arch"`
	Node           int    `json:"node"`
	FinalState     string `json:"final_state"`
	ModuleLoads    int    `json:"module_loads"`
	PeerFetches    int    `json:"peer_fetches"`
	PeerFetchFails int    `json:"peer_fetch_fails"`
}

// FailoverArm is the outcome of one fault scenario on one fleet.
type FailoverArm struct {
	Name           string        `json:"name"`
	Peering        bool          `json:"peering"`
	Images         bool          `json:"images"`
	Served         int           `json:"served"`
	Evacuated      int           `json:"evacuated"`
	Failed         int           `json:"failed"`
	Evacuations    int           `json:"evacuations"`  // monitor transitions into quarantined/dead
	EvacTenants    int           `json:"evac_tenants"` // tenants that relocated at least once
	ImageAttaches  int           `json:"image_attaches"`
	MeanTTFIMs     float64       `json:"ttfi_mean_ms"`      // steady-state served requests
	MeanEvacMs     float64       `json:"mean_evac_ttfi_ms"` // relocation through first inference
	PeerFetches    int           `json:"peer_fetches"`
	PeerFetchFails int           `json:"peer_fetch_fails"`
	ModuleLoads    int           `json:"module_loads"`
	GPUs           []FailoverGPU `json:"gpus"`
}

// FailoverFleet is one heterogeneous fleet's full scenario sweep.
type FailoverFleet struct {
	Primary   string        `json:"primary"`
	Secondary string        `json:"secondary"`
	Arms      []FailoverArm `json:"arms"`
}

// Arm returns the named arm, or nil.
func (f *FailoverFleet) Arm(name string) *FailoverArm {
	for i := range f.Arms {
		if f.Arms[i].Name == name {
			return &f.Arms[i]
		}
	}
	return nil
}

// FailoverBench is the machine-readable payload of the experiment
// (BENCH_failover.json).
type FailoverBench struct {
	Models   []string        `json:"models"`
	Batch    int             `json:"batch"`
	Tenants  int             `json:"tenants"`
	Requests int             `json:"requests_per_tenant"`
	Fleets   []FailoverFleet `json:"fleets"`
}

// The four arms every fleet runs. Cold and warm share the same scheduled
// GPU death; they differ only in what the evacuated tenants can salvage.
const (
	armColdRespawn  = "gpu-death/cold"
	armWarmFailover = "gpu-death/warm"
	armLinkFlap     = "gpu-death/link-flap"
	armDegraded     = "ecc-degraded"
)

// failoverScenario describes one arm's faults and salvage levers.
type failoverScenario struct {
	name    string
	peering bool // cross-GPU cache peering on the fleet
	images  bool // cache-image attach + manifest replay on evacuation
	faults  *gpuFaults
}

// failoverScenarios returns the four arms with fresh fault state.
func failoverScenarios() []failoverScenario {
	kill := func() *gpuFaults { return &gpuFaults{killAt: failoverKillAt, killGPU: failoverVictim} }
	flap := kill()
	flap.flapGPU, flap.flapFrom, flap.flapUntil = failoverSpare, failoverKillAt, failoverKillAt+failoverFlapFor
	// The degradation window covers the victim's tenant bring-up loads:
	// with nothing resident anywhere yet those are local (peering has
	// nothing to offer), so the injected ECC faults land on the registry
	// counters the monitor scrapes. Rejoin does not wait for the window —
	// once the tenants evacuate, the idle GPU polls clean and serves out
	// its probation.
	degrade := &gpuFaults{seed: 11, degradeGPU: failoverVictim, factor: 3, transient: 0.9, degradeUntil: failoverDegrade}
	return []failoverScenario{
		{name: armColdRespawn, faults: kill()},
		{name: armWarmFailover, peering: true, images: true, faults: kill()},
		{name: armLinkFlap, peering: true, images: true, faults: flap},
		{name: armDegraded, peering: true, images: true, faults: degrade},
	}
}

// gpuFaults are the whole-GPU faults of one failover arm: a scheduled
// device death, ECC-style degradation of one GPU over [0, degradeUntil),
// and a link flap failing every peer transfer that touches flapGPU over
// [flapFrom, flapUntil). The zero value injects nothing. Degradation rolls
// go through faults.Roll, so an arm replays identically in any run order.
type gpuFaults struct {
	seed int64

	killAt  time.Duration // when killGPU falls off the bus; 0 never
	killGPU int

	degradeGPU   int
	factor       float64 // load-latency multiplier (> 1 to apply)
	transient    float64 // per-load error rate
	degradeUntil time.Duration
	burst        int // cap on consecutive degradation errors per path; 0 means 2

	flapGPU             int
	flapFrom, flapUntil time.Duration

	mu     sync.Mutex
	armed  bool           // the kill watcher is spawned
	degN   map[string]int // degraded-load rolls per (gpu, path)
	degRun map[string]int // consecutive degradation errors per (gpu, path)
}

// view returns GPU i's fault seam: degradation only, since store reads
// and load latency are per-process faults that no failover arm injects.
func (g *gpuFaults) view(i int) backend.FaultInjector { return gpuView{g, i} }

// armDeath spawns a watcher that calls kill (typically
// Registry.MarkDeviceLost) when GPU i's scheduled death comes. It arms
// at most once however often it is called.
func (g *gpuFaults) armDeath(env *sim.Env, i int, kill func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.killAt <= 0 || i != g.killGPU || g.armed {
		return
	}
	g.armed = true
	env.Spawn(fmt.Sprintf("fault-gpu-death-%d", i), func(p *sim.Proc) {
		p.SleepUntil(g.killAt)
		kill()
	})
}

// linkDown reports whether a peer transfer between GPUs i and j starting
// at now fails on a flapping link.
func (g *gpuFaults) linkDown(now time.Duration, i, j int) bool {
	return (i == g.flapGPU || j == g.flapGPU) && now >= g.flapFrom && now < g.flapUntil
}

// gpuView is one GPU's backend.FaultInjector over its arm's gpuFaults.
type gpuView struct {
	g   *gpuFaults
	idx int
}

func (gpuView) StoreGet(_ string, data []byte) ([]byte, error)       { return data, nil }
func (gpuView) ExtraLoadLatency(time.Duration, string) time.Duration { return 0 }

// LoadLatencyScale stretches loads on the degraded GPU inside its window.
func (v gpuView) LoadLatencyScale(now time.Duration) float64 {
	g := v.g
	if v.idx != g.degradeGPU || g.factor <= 1 || now >= g.degradeUntil {
		return 1
	}
	return g.factor
}

// ExtraLoadError fails loads on the degraded GPU inside its window at the
// transient rate. Consecutive failures per path are burst-capped so
// bounded retry wins.
func (v gpuView) ExtraLoadError(now time.Duration, path string) error {
	g := v.g
	if v.idx != g.degradeGPU || g.transient <= 0 || now >= g.degradeUntil {
		return nil
	}
	burst := g.burst
	if burst <= 0 {
		burst = 2
	}
	key := fmt.Sprintf("gpu%d|%s", v.idx, path)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.degN == nil {
		g.degN, g.degRun = make(map[string]int), make(map[string]int)
	}
	n := g.degN[key]
	g.degN[key] = n + 1
	if g.degRun[key] >= burst {
		g.degRun[key] = 0
		return nil
	}
	if faults.Roll(g.seed, "degrade", key, n) < g.transient {
		g.degRun[key]++
		return fmt.Errorf("faults: injected ECC degradation reading %q on gpu%d (access %d): %w",
			path, v.idx, n, codeobj.ErrIO)
	}
	g.degRun[key] = 0
	return nil
}

// Fleet roles: the victim dies in the death arms and degrades (then
// recovers) in the ECC arm; the twin carries same-ISA residency the warm
// arms peer-fetch from; the spare starts empty and absorbs evacuees; the
// cross GPU is the cross-vendor device that keeps the fleet heterogeneous.
const (
	failoverVictim = 0 // primary ISA, NUMA node 0
	failoverTwin   = 1 // primary ISA, NUMA node 0
	failoverSpare  = 2 // primary ISA, NUMA node 1
	failoverCross  = 3 // secondary ISA, NUMA node 1
)

// Failover runs the failure-domain sweep: for each primary profile, a
// four-GPU fleet (three primary + one cross-vendor secondary) serves steady
// per-tenant request streams while the health monitor watches. The cold and
// warm arms kill the victim GPU mid-stream and differ only in salvage —
// warm evacuees peer-refetch kernels still resident on the surviving twin
// and replay an attached cache image, cold evacuees demand-load everything
// from the store. The link-flap arm additionally fails the spare's links
// during the evacuation so peer transfers fall back to local loads, and the
// degraded arm walks the full ladder: ECC-style degradation on the twin,
// quarantine, evacuation, probation, rejoin. The experiment itself asserts
// zero failed requests everywhere and that warm evacuation TTFI is strictly
// below cold respawn on every fleet. The tenants run o.Models (default
// alex, res, vgg; quick alex, res) at the first selected batch (default and
// minimum 1); o.Quick shortens each tenant's stream, and o.Trace records
// the first fleet's warm-failover arm. The result carries the table and a
// *FailoverBench.
func Failover(o experiments.Options) (*experiments.Result, error) {
	models := fleetModels(o)
	batch, requests := max(o.Batch(), 1), failoverRequests(o.Quick)
	bench := &FailoverBench{Models: models, Batch: batch,
		Tenants: failoverTenants(models), Requests: requests}
	table := &experiments.Table{
		ID: "failover",
		Title: fmt.Sprintf("GPU failure domains: evacuation + warm failover on 4-GPU fleets (%s, %d tenants x %d requests)",
			strings.Join(models, "+"), failoverTenants(models), requests),
		Headers: []string{"fleet", "arm", "served", "evac", "failed", "mean_evac_ms", "peer_fetches", "peer_fails", "health"},
	}

	imgDir, err := os.MkdirTemp("", "pask-failover-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(imgDir)

	for fi, primary := range device.Profiles() {
		f, err := newGPUFleet(primary, models, batch)
		if err != nil {
			return nil, err
		}
		fleet := FailoverFleet{Primary: f.primary.Name, Secondary: f.secondary.Name}

		// One image store per fleet, holding a pre-built image of every
		// primary-ISA model — what PR 4's fleet distribution would have
		// staged on the host before the failure.
		images, err := buildFailoverImages(imgDir, fi, f.setups[primary.Arch], models)
		if err != nil {
			return nil, err
		}

		for _, sc := range failoverScenarios() {
			var rec *trace.Recorder
			if fi == 0 && sc.name == armWarmFailover {
				rec = o.Trace
			}
			arm, err := runFailoverArm(f, requests, images, sc, rec)
			if err != nil {
				return nil, fmt.Errorf("serving: failover %s/%s: %w", primary.Name, sc.name, err)
			}
			fleet.Arms = append(fleet.Arms, *arm)
			states := ""
			for i, g := range arm.GPUs {
				if i > 0 {
					states += "/"
				}
				states += g.FinalState
			}
			table.Rows = append(table.Rows, []string{
				fleet.Primary + "+" + fleet.Secondary, sc.name,
				fmt.Sprint(arm.Served), fmt.Sprint(arm.Evacuated), fmt.Sprint(arm.Failed),
				fmt.Sprintf("%.2f", arm.MeanEvacMs),
				fmt.Sprint(arm.PeerFetches), fmt.Sprint(arm.PeerFetchFails), states,
			})
		}

		if err := checkFailoverFleet(&fleet); err != nil {
			return nil, err
		}
		cold, warm := fleet.Arm(armColdRespawn), fleet.Arm(armWarmFailover)
		table.Notes = append(table.Notes, fmt.Sprintf(
			"%s fleet: warm failover %.2fms vs cold respawn %.2fms mean evacuation TTFI (%.1f%% lower), zero failed requests in all arms",
			primary.Name, warm.MeanEvacMs, cold.MeanEvacMs, 100*(1-warm.MeanEvacMs/cold.MeanEvacMs)))
		bench.Fleets = append(bench.Fleets, fleet)
	}
	return &experiments.Result{Tables: []*experiments.Table{table}, Bench: bench}, nil
}

// checkFailoverFleet enforces the experiment's own acceptance bar on one
// fleet: no arm lost a request, warm evacuation strictly beats cold
// respawn, the flap arm actually exercised the peer fallback, and the
// degraded arm evacuated the twin and then let it rejoin.
func checkFailoverFleet(fleet *FailoverFleet) error {
	for i := range fleet.Arms {
		arm := &fleet.Arms[i]
		if arm.Failed != 0 {
			return fmt.Errorf("serving: failover %s/%s lost %d requests, want 0",
				fleet.Primary, arm.Name, arm.Failed)
		}
		if arm.Evacuated == 0 || arm.Evacuations == 0 {
			return fmt.Errorf("serving: failover %s/%s evacuated nothing (evacuated=%d evacuations=%d)",
				fleet.Primary, arm.Name, arm.Evacuated, arm.Evacuations)
		}
	}
	cold, warm := fleet.Arm(armColdRespawn), fleet.Arm(armWarmFailover)
	if warm.MeanEvacMs >= cold.MeanEvacMs {
		return fmt.Errorf("serving: failover %s warm evacuation %.2fms not below cold respawn %.2fms",
			fleet.Primary, warm.MeanEvacMs, cold.MeanEvacMs)
	}
	if flap := fleet.Arm(armLinkFlap); flap.PeerFetchFails == 0 {
		return fmt.Errorf("serving: failover %s link-flap arm saw no peer-fetch fallbacks", fleet.Primary)
	}
	if deg := fleet.Arm(armDegraded); deg.GPUs[failoverVictim].FinalState != GPUHealthy.String() {
		return fmt.Errorf("serving: failover %s degraded GPU ended %q, want rejoin to %q",
			fleet.Primary, deg.GPUs[failoverVictim].FinalState, GPUHealthy)
	}
	return nil
}

// buildFailoverImages pre-builds one cache image per primary-ISA model into
// a fresh store under dir (unique per fleet).
func buildFailoverImages(dir string, fleet int, setups map[string]*experiments.ModelSetup, models []string) (*cacheimg.Store, error) {
	sub, err := os.MkdirTemp(dir, fmt.Sprintf("fleet%d-*", fleet))
	if err != nil {
		return nil, err
	}
	store, err := cacheimg.Open(sub)
	if err != nil {
		return nil, err
	}
	for _, abbr := range models {
		img, _, err := setups[abbr].BuildCacheImage()
		if err != nil {
			return nil, fmt.Errorf("serving: failover image %s: %w", abbr, err)
		}
		if _, err := store.Publish(img); err != nil {
			return nil, fmt.Errorf("serving: failover publish %s: %w", abbr, err)
		}
	}
	return store, nil
}

// failoverTenant is one tenant's live serving state; relocation swaps its
// GPU, setup (per target ISA) and attached process.
type failoverTenant struct {
	idx   int
	name  string
	abbr  string
	gpu   int
	ms    *experiments.ModelSetup
	pr    *experiments.Process
	evacs int

	// mustMove is the monitor's drain order: set by OnEvacuate when the
	// tenant's GPU enters quarantined or dead, honored at the next request
	// boundary even if the device has rejoined by then — an operator drains
	// a quarantined GPU, it does not gamble on the brownout passing.
	mustMove bool
}

// runFailoverArm serves one deterministic tenant schedule, `requests` per
// tenant, on a fresh fleet under one fault scenario and aggregates serving
// stats, registry activity and final health states.
func runFailoverArm(f *gpuFleet, requests int, images *cacheimg.Store, sc failoverScenario, rec *trace.Recorder) (*FailoverArm, error) {
	rig := f.rig([]gpuSlot{
		{false, 0}, // failoverVictim
		{false, 0}, // failoverTwin
		{false, 1}, // failoverSpare
		{true, 1},  // failoverCross
	}, failoverSlots(f.models), sc.peering, rec)
	env := rig.Env

	for i := range rig.Nodes {
		rig.Nodes[i].Root().SetFaults(sc.faults.view(i))
		sc.faults.armDeath(env, i, rig.Nodes[i].Root().MarkDeviceLost)
	}
	rig.links = sc.faults
	var tenants []*failoverTenant
	hm := NewHealthMonitor(rig.MultiGPUHost, rec)
	hm.OnEvacuate = func(gpu int, state GPUHealthState) {
		for _, ft := range tenants {
			if ft.gpu == gpu {
				ft.mustMove = true
			}
		}
	}
	hm.Start(env)

	stats := &Stats{}
	arm := &FailoverArm{Name: sc.name, Peering: sc.peering, Images: sc.images}

	// retry runs attempt up to three times, counting each retry and sleeping
	// the tenant's capped-jitter backoff before it. An error for which fatal
	// (when non-nil) reports true ends the loop at once.
	retry := func(p *sim.Proc, ft *failoverTenant, fatal func(error) bool, attempt func() error) error {
		b := backoff{base: 200 * time.Microsecond, max: 2 * time.Millisecond, offset: 1, seed: int64(ft.idx), key: ft.abbr}
		return b.retry(p, 3, &stats.Retries, func(n int) (bool, error) {
			err := attempt()
			return n < 2 && (fatal == nil || !fatal(err)), err
		})
	}

	// relocate drains a tenant off its sick GPU, re-places it through the
	// load-balanced policy (the empty spare wins deterministically), warm-arms
	// the new process from the fleet's cache images when the scenario allows,
	// and serves the pending request there. The whole move — detach through
	// first inference on the new device — is the evacuation TTFI.
	relocate := func(p *sim.Proc, ft *failoverTenant) error {
		t0 := p.Now()
		return retry(p, ft, nil, func() error {
			ft.pr.RT.Detach()
			rig.Release(ft.gpu)
			g := rig.Pick(PlaceBalanced, f.objects[ft.abbr])
			rig.Acquire(g)
			ft.gpu = g
			ft.evacs++
			ft.ms = rig.setup(g, ft.abbr)
			ft.pr = ft.ms.AttachIn(rig.Nodes[g].Root(), fmt.Sprintf("%s~e%d", ft.name, ft.evacs))
			if sc.images && images != nil {
				if att, aerr := images.Attach(ft.ms.Spec.Abbr, rig.Host.GPU(g).Profile, ft.ms.Store.Fingerprint()); aerr == nil {
					// Replay overlaps bring-up; demand loads coalesce with it.
					warmup.Start(env, ft.pr.RT, att.Image.Manifest, rec)
					arm.ImageAttaches++
				}
			}
			if err := serveBaseline(p, ft.pr, ft.ms, true); err != nil {
				return err
			}
			lat := p.Now() - t0
			stats.recordEvacuated(lat)
			if rec != nil {
				rec.Count("evac_ttfi_ms", p.Now(), millis(lat))
			}
			return nil
		})
	}

	// serveOnce runs one request (with bring-up on the first), retrying
	// transient faults the registry could not absorb. Device loss is not
	// retried here — the caller relocates instead.
	serveOnce := func(p *sim.Proc, ft *failoverTenant, bringup bool) error {
		t0 := p.Now()
		return retry(p, ft, backend.IsDeviceLost, func() error {
			if err := serveBaseline(p, ft.pr, ft.ms, bringup); err != nil {
				return err
			}
			stats.Latencies = append(stats.Latencies, p.Now()-t0)
			return nil
		})
	}

	hosts := []int{failoverVictim, failoverTwin, failoverCross}
	env.Spawn("failover-driver", func(p *sim.Proc) {
		for t := 0; t < failoverTenants(f.models); t++ {
			// Tenants arrive in model-set groups: the full zoo lands on the
			// victim, then the twin, then the cross-vendor GPU, so the twin
			// mirrors every model the victim hosts and the spare stays empty.
			ft := &failoverTenant{
				idx:  t,
				abbr: f.models[t%len(f.models)],
				gpu:  hosts[(t/len(f.models))%len(hosts)],
			}
			ft.name = fmt.Sprintf("%s/%d", ft.abbr, t)
			ft.ms = rig.setup(ft.gpu, ft.abbr)
			rig.Acquire(ft.gpu)
			tenants = append(tenants, ft)
			rig.tenants.spawn("tenant-"+ft.name, func(p *sim.Proc) {
				defer func() {
					ft.pr.RT.Detach()
					rig.Release(ft.gpu)
				}()
				ft.pr = ft.ms.AttachIn(rig.Nodes[ft.gpu].Root(), ft.name)
				for r := 0; r < requests; r++ {
					if r > 0 {
						p.Sleep(failoverGap)
					}
					reqIdx := ft.idx*requests + r
					if ft.mustMove || !rig.Usable(ft.gpu) {
						// The monitor ordered a drain (or the driver lost the
						// device): evacuate, and serve this request over there.
						ft.mustMove = false
						if err := relocate(p, ft); err != nil {
							stats.recordFailure(reqIdx, err)
						}
						continue
					}
					if err := serveOnce(p, ft, r == 0); err != nil {
						if backend.IsDeviceLost(err) {
							// Death mid-request: the typed error arrives before
							// the next health poll. Same evacuation path.
							if rerr := relocate(p, ft); rerr != nil {
								stats.recordFailure(reqIdx, rerr)
							}
							continue
						}
						stats.recordFailure(reqIdx, err)
					}
				}
			})
			p.Sleep(failoverInterval)
		}
		rig.tenants.close()
		rig.tenants.wait(p)
		// Dwell so a cleanly-probationed quarantined GPU can rejoin before
		// the final health snapshot.
		p.Sleep(failoverSettle)
		hm.Stop()
		rig.CloseAll()
	})
	if err := env.Run(); err != nil {
		return nil, err
	}

	total := failoverTenants(f.models) * requests
	served := len(stats.Latencies)
	if served+stats.Failed+stats.Evacuated != total {
		return nil, fmt.Errorf("serving: failover accounting broke: served %d + failed %d + evacuated %d != %d requests",
			served, stats.Failed, stats.Evacuated, total)
	}
	arm.Served = served
	arm.Evacuated = stats.Evacuated
	arm.Failed = stats.Failed
	arm.Evacuations = hm.Evacuations()
	arm.MeanTTFIMs = millis(stats.Mean())
	arm.MeanEvacMs = millis(stats.MeanEvac())
	for _, ft := range tenants {
		if ft.evacs > 0 {
			arm.EvacTenants++
		}
	}
	for i, g := range rig.gpuStats() {
		arm.PeerFetches += g.PeerFetches
		arm.PeerFetchFails += g.PeerFetchFails
		arm.ModuleLoads += g.ModuleLoads
		arm.GPUs = append(arm.GPUs, FailoverGPU{
			Driver: g.driver, Arch: g.arch, Node: g.node,
			FinalState:  hm.State(i).String(),
			ModuleLoads: g.ModuleLoads, PeerFetches: g.PeerFetches, PeerFetchFails: g.PeerFetchFails,
		})
	}
	return arm, nil
}
