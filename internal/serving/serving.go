// Package serving models the deployment scenarios that make DNN cold start
// unavoidable (paper §I): serverless scale-out, preemptible spot instances
// and resource-constrained edge devices. An Instance is one warm process
// serving inference requests for a model; ServeFleetModels routes a request
// trace across an autoscaled pool of instances under a keep-alive policy,
// spawning cold instances on demand.
//
// Paper anchor: the §I deployment scenarios (serverless, spot, edge) that make cold start unavoidable.
package serving

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"pask/internal/core"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/graphx"
	"pask/internal/metrics"
	"pask/internal/sim"
	"pask/internal/trace"
	"pask/internal/traffic"
	"pask/internal/warmup"
)

// ErrDeadlineExceeded marks a request whose service time overran the
// policy's per-request deadline. The work completed, just too late to be
// useful to the caller.
var ErrDeadlineExceeded = errors.New("serving: request deadline exceeded")

// ErrInstanceCrashed marks a request that exhausted its retries on one
// instance; the instance was torn down and replaced. The wrapped cause is
// the last serve error observed before the teardown.
var ErrInstanceCrashed = errors.New("serving: instance crashed")

// Policy configures how instances execute requests.
type Policy struct {
	// Scheme is the cold-start execution strategy.
	Scheme core.Scheme
	// Options passes the PASK §VI extensions through.
	Options core.Options
	// BackgroundLoad uses idle gaps between requests to load previously
	// skipped solutions (paper §VI).
	BackgroundLoad bool
	// FT bounds per-request fault tolerance (deadline, retries, crash
	// recovery). The zero value keeps the historical fail-fast behavior.
	FT FaultTolerance
	// Faults, when set, injects the plan's faults into every instance this
	// policy creates (experiments.Process.InjectFaults): store-read faults,
	// module-load latency spikes, find-path outages and the device reset.
	Faults *faults.Injector
	// Rec, when set, records one span per request (track "serving", or
	// "serving:<tenant>" on shared GPUs) with model / index / cold / error
	// attributes, plus every instance's pipeline activity. All recorder
	// methods are nil-safe.
	Rec *trace.Recorder
	// Warmup maps model abbreviations to recorded load profiles. Every
	// instance spawned for a mapped model — including crash-recovery
	// replacements — starts a prefetcher thread replaying the manifest, so
	// its first request finds modules resident. Stale or partial manifests
	// degrade the instance to a plain cold start; they never fail it.
	Warmup map[string]*warmup.Manifest
}

// FaultTolerance is the degradation contract a serving scenario applies per
// request: an optional latency deadline, bounded same-instance retries with
// doubling backoff, and — once retries are exhausted — crash recovery that
// tears the instance down and retries once on a fresh process (the same
// machinery spot preemption uses). The zero value disables all of it.
type FaultTolerance struct {
	// Deadline fails a request with ErrDeadlineExceeded when its service
	// time exceeds it. Zero means no deadline.
	Deadline time.Duration
	// MaxRetries re-runs a failed request on the same instance up to this
	// many extra times before declaring the instance crashed. The wait
	// before each retry doubles from 500µs up to a 2ms cap.
	MaxRetries int
	// BackoffSeed selects the deterministic jitter stream applied to every
	// backoff step: waits get a seeded ±25% perturbation so co-failing
	// servers do not retry in lockstep, while identical configurations
	// still replay identical virtual-time schedules.
	BackoffSeed int64
	// ContinueOnError records failed requests in Stats.FailedRequests and
	// keeps serving the rest of the trace instead of aborting it.
	ContinueOnError bool
}

func (ft FaultTolerance) enabled() bool {
	return ft.Deadline > 0 || ft.MaxRetries > 0 || ft.ContinueOnError
}

// The per-request retry backoff: the wait before the first retry, and the
// cap on its exponential growth.
const (
	retryBackoff    = 500 * time.Microsecond
	maxRetryBackoff = 4 * retryBackoff
)

// Instance is one serving slot for one model: the live process — isolated,
// or a tenant view of a shared GPUHost — its warm state, and the
// fault-tolerance contract that replaces the process after a crash. The
// first request on a fresh (or evicted) process is a cold start; later
// requests reuse the warm state.
type Instance struct {
	env    *sim.Env
	ms     *experiments.ModelSetup
	policy Policy
	stats  *Stats

	// host is the shared GPU a tenant instance attaches to (nil: the
	// instance owns its device). tenant is the base tenant name; gen counts
	// crash replacements, so each replacement's runtime and cache views get
	// a distinguishable name (see view).
	host   *GPUHost
	tenant string
	gen    int

	pr          *experiments.Process
	cache       core.Cache
	model       *graphx.CompiledModel // the plan the last cold start ran
	initialized bool
	served      int
	lastResult  *core.Result

	// prefetch replays the policy's warmup manifest for this model, when
	// one is configured. It runs concurrently with (and usually completes
	// before) the first request's cold path.
	prefetch *warmup.Prefetcher
}

// newInstance brings up a cold instance of ms that owns a fresh device in
// env or, with host set, attaches to the shared GPU as the named tenant.
// Request outcomes and warmup replays are accounted in stats.
func newInstance(env *sim.Env, host *GPUHost, ms *experiments.ModelSetup, policy Policy, stats *Stats, tenant string) *Instance {
	in := &Instance{env: env, ms: ms, policy: policy, stats: stats, host: host, tenant: tenant}
	in.start()
	return in
}

// view names the live process's runtime and shared-cache views: the tenant
// name, generation-suffixed after a replacement ("res/0", then "res/0#1").
func (in *Instance) view() string {
	if in.gen == 0 {
		return in.tenant
	}
	return fmt.Sprintf("%s#%d", in.tenant, in.gen)
}

// startHook, when non-nil, sees every process an instance starts. Tests set
// it to inspect processes the serving loops create internally.
var startHook func(*experiments.Process)

// start brings up a fresh cold process: a private device, or a refcounted
// view of the host's runtime. A policy with a fault injector wires it into
// the process (on a shared GPU the registry's faults hit whichever tenant
// triggers the load) and arms the plan's device reset, once per plan. When
// the policy carries a profile for the model, manifest replay begins the
// moment the process exists — overlapping whatever bring-up precedes the
// first request.
func (in *Instance) start() {
	if in.host == nil {
		in.pr = in.ms.NewProcessIn(in.env)
	} else {
		in.pr = in.ms.AttachIn(in.host.Root(), in.view())
	}
	if startHook != nil {
		startHook(in.pr)
	}
	in.served, in.initialized, in.lastResult = 0, false, nil
	in.pr.InjectFaults(in.policy.Faults)
	if in.policy.Rec != nil {
		in.pr.Record(in.policy.Rec)
	}
	if man := in.policy.Warmup[in.ms.Spec.Abbr]; man != nil && len(man.Entries) > 0 {
		in.prefetch = warmup.Start(in.pr.Env, in.pr.RT, man, in.policy.Rec)
	}
}

// close tears the live process down after banking its warmup replay in the
// stats. An isolated instance owns its device and closes it outright; a
// tenant only detaches its view — pins drop so eviction may reclaim its
// modules, but nothing is unloaded and the device, its modules and the
// other tenants stay live.
func (in *Instance) close() {
	if pf := in.prefetch; pf != nil {
		in.prefetch = nil
		st := pf.Stats()
		in.stats.WarmupReplays++
		in.stats.WarmupLoads += st.Loaded + st.Coalesced
		in.stats.WarmupStale += st.Stale
	}
	if in.host != nil {
		in.pr.RT.Detach()
		return
	}
	in.pr.GPU.CloseAll()
}

// replace swaps the live process for a fresh cold one — the
// spot-preemption machinery reused for crash recovery. On a shared GPU the
// shared negative cache is cleared too (a fresh isolated process starts
// with an empty one, and recovery must be able to retry loads the dead
// tenant poisoned), and the fresh view attaches under the next generation's
// name. The GPU, its context and every surviving tenant stay live.
func (in *Instance) replace() {
	in.close()
	if in.host != nil {
		in.host.Root().ClearFailures()
		in.gen++
	}
	in.start()
}

// Warm reports whether the instance has completed its first request.
func (in *Instance) Warm() bool { return in.served > 0 }

// initProcess performs process bring-up (GPU context + library open) once.
func (in *Instance) initProcess(p *sim.Proc) error {
	if in.initialized {
		return nil
	}
	if err := in.pr.Init(p); err != nil {
		return err
	}
	if in.host != nil {
		// Shared GPU: every tenant consults the host's cross-model cache
		// through its own attributing view. The structure is always the
		// categorical one — a flat PaSK-R scan over every tenant's entries
		// would charge each tenant for the whole GPU's working set, so the
		// PaSK-R ablation is only meaningful on isolated instances.
		v := in.host.Cache.View()
		core.SeedResidents(v, in.pr.Lib)
		in.cache = v
	} else {
		in.cache = core.NewCache(in.policy.Scheme, in.pr.Lib)
	}
	in.initialized = true
	return nil
}

// Serve executes one inference request and returns its latency. The first
// request is the scheme's cold start (core.Run); later ones keep following
// Algorithm 1 against the warm cache when the scheme reuses kernels, with
// the parsed program retained (paper §VI), and run hot otherwise.
func (in *Instance) Serve(p *sim.Proc) (time.Duration, error) {
	if err := in.initProcess(p); err != nil {
		return 0, err
	}
	start := p.Now()
	var res *core.Result
	var err error
	switch {
	case !in.Warm():
		if in.model, err = in.ms.SchemeModel(p, in.pr, in.policy.Scheme); err != nil {
			return 0, err
		}
		start = p.Now()
		res, err = core.Run(p, in.pr.Runner, in.model, in.policy.Scheme, in.cache, in.policy.Options)
	case in.policy.Scheme.Reuses():
		res, err = core.RunWarmReuse(p, in.pr.Runner, in.model, in.cache, in.policy.Options)
	default:
		err = in.pr.Runner.RunHot(p, in.model)
	}
	if res != nil {
		in.lastResult = res
	}
	if err != nil {
		return 0, err
	}
	in.served++
	return p.Now() - start, nil
}

// Idle lets the instance use an idle interval. Under a background-loading
// policy it loads the solutions skipped by earlier requests (§VI); it
// returns the number of objects loaded.
func (in *Instance) Idle(p *sim.Proc, budget time.Duration) (int, error) {
	if !in.policy.BackgroundLoad || in.lastResult == nil {
		return 0, nil
	}
	n, err := core.BackgroundLoad(p, in.pr.Runner, in.cache, in.lastResult.Skipped, budget)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Evict models memory-pressure eviction on edge devices: every loaded code
// object and the model weights are dropped, but the process survives. The
// next request pays the cold path again.
func (in *Instance) Evict() {
	in.pr.RT.UnloadAll()
	in.pr.Runner.EvictParams(in.ms.Model.Name)
	in.pr.Runner.EvictParams(in.ms.Uniform.Name)
	in.served = 0
	in.initialized = false // reopening the library remaps residents
	in.lastResult = nil
}

// Request is one inference arrival. Model optionally names the zoo model
// the request targets ("" means the scenario's default model); multi-model
// fleets route on it.
type Request = traffic.Request

// Trace is a request arrival sequence.
type Trace []Request

// InterleavedTrace alternates requests over the given models round-robin,
// perModel requests each, at a fixed arrival interval — the deterministic
// heterogeneous workload the multitenant experiment replays against shared
// and isolated runtimes.
func InterleavedTrace(models []string, perModel int, interval time.Duration) Trace {
	var tr Trace
	for i := 0; i < perModel*len(models); i++ {
		tr = append(tr, Request{
			At:    time.Duration(i) * interval,
			Model: models[i%len(models)],
		})
	}
	return tr
}

// PoissonTrace draws arrivals with exponential inter-arrival times at the
// given mean interval, deterministically from seed.
func PoissonTrace(n int, meanInterval time.Duration, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(meanInterval))
		tr = append(tr, Request{At: at})
	}
	return tr
}

// BurstTrace produces n simultaneous arrivals at time 0 — the serverless
// scale-out spike.
func BurstTrace(n int) Trace {
	tr := make(Trace, n)
	return tr
}

// Stats aggregates request latencies.
type Stats struct {
	Latencies  []time.Duration
	ColdStarts int
	BGLoads    int

	// Warmup accounting, populated when Policy.Warmup maps this model.
	WarmupReplays int // instances that ran a manifest replay
	WarmupLoads   int // objects replay made resident (paid + coalesced)
	WarmupStale   int // manifest entries skipped as stale

	// ColdLatencies are the latencies of the requests counted in
	// ColdStarts, kept separate so fault sweeps can report cold-path cost.
	ColdLatencies []time.Duration

	// Fault-tolerance accounting, populated when Policy.FT is enabled.
	Failed         int           // requests lost after retries and recovery
	Retries        int           // serve attempts repeated after an error
	Crashes        int           // instances declared crashed and replaced
	Recovered      int           // replacements that then served the request
	DeadlineMisses int           // requests completing past FT.Deadline
	DegradedLayers int           // layers served by a forced substitute
	FailedRequests map[int]error // request index -> final typed error

	// Failure-domain accounting, populated when a health monitor evacuates
	// tenants off a sick GPU. Evacuated requests are served — on a different
	// GPU than they arrived at, after the tenant re-placed and warm-respawned
	// — but counted apart from Latencies so failover sweeps can report the
	// relocation cost separately. EvacLatencies are their end-to-end times
	// (relocation included).
	Evacuated     int
	EvacLatencies []time.Duration

	// Overload-protection accounting, populated when FleetConfig enables
	// shedding or brownout. Shed and BreakerRejected
	// requests never reach an instance and are counted apart from Failed:
	// the invariant is served + Failed + Shed + BreakerRejected + Evacuated
	// == requests.
	Shed              int // requests dropped by admission control (ErrShed)
	BreakerRejected   int // requests refused while a breaker was open
	SLOMisses         int // served requests whose end-to-end latency broke FleetConfig.SLO
	BreakerTrips      int // closed/half-open → open transitions
	BreakerRecoveries int // half-open → closed transitions
	BrownoutEnters    int // pressure transitions out of nominal
	PressurePeak      int // highest pressure level reached (core.PressureLevel)
	PressureReuse     int // layers served by pressure-forced substitutes

	// sorted caches the ascending copy of Latencies for Percentile;
	// sortedN is the Latencies length it was computed at.
	sorted  []time.Duration
	sortedN int
}

// recordFailure indexes a request's final error. Idempotent per request
// index: crash recovery can surface the same request's failure through more
// than one path (replacement serve, deadline check), and the first recorded
// error must count it exactly once.
func (s *Stats) recordFailure(idx int, err error) {
	if s.FailedRequests == nil {
		s.FailedRequests = make(map[int]error)
	}
	if _, dup := s.FailedRequests[idx]; !dup {
		s.Failed++
	}
	s.FailedRequests[idx] = err
}

// recordShed indexes a request dropped by admission control. Shed requests
// carry their typed error in FailedRequests but are counted in Shed, not
// Failed — they were never attempted.
func (s *Stats) recordShed(idx int) {
	s.Shed++
	if s.FailedRequests == nil {
		s.FailedRequests = make(map[int]error)
	}
	s.FailedRequests[idx] = ErrShed
}

// recordEvacuated counts a request served after its tenant evacuated a sick
// GPU mid-flight: the request succeeded, but on a different device than it
// arrived at, and its latency includes the relocation. Counted in Evacuated
// instead of Latencies so the accounting invariant
// served+Failed+Shed+BreakerRejected+Evacuated == requests still partitions
// every request exactly once.
func (s *Stats) recordEvacuated(lat time.Duration) {
	s.Evacuated++
	s.EvacLatencies = append(s.EvacLatencies, lat)
}

// MeanEvac returns the average latency over EvacLatencies.
func (s *Stats) MeanEvac() time.Duration { return meanDuration(s.EvacLatencies) }

// Percentile returns the q-quantile latency. q is clamped into [0,1]
// (callers passing q outside the range get the min/max latency rather than
// an out-of-bounds index). Like Mean, it ranges over Latencies only —
// successfully served requests; failed requests never enter the latency
// distribution and are accounted in Failed/FailedRequests instead. The
// sorted copy is cached and reused until more latencies are recorded, so
// sweeps querying several quantiles sort once.
func (s *Stats) Percentile(q float64) time.Duration {
	if len(s.Latencies) == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	if s.sorted == nil || s.sortedN != len(s.Latencies) {
		s.sorted = append(s.sorted[:0], s.Latencies...)
		slices.Sort(s.sorted)
		s.sortedN = len(s.Latencies)
	}
	idx := int(math.Ceil(q*float64(len(s.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.sorted) {
		idx = len(s.sorted) - 1
	}
	return s.sorted[idx]
}

// Mean returns the average latency over Latencies — the same successful
// requests Percentile ranges over (failed requests are excluded from both).
func (s *Stats) Mean() time.Duration { return meanDuration(s.Latencies) }

// meanDuration averages ds; 0 when empty.
func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// millis converts d to fractional milliseconds, the unit of every
// experiment envelope and counter.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fmtMs renders d in milliseconds with two decimals, the table cell format.
func fmtMs(d time.Duration) string { return fmt.Sprintf("%.2f", millis(d)) }

// harvest folds a fresh run result into the degradation counters. prev is
// the result pointer observed before the serve: schemes that do not produce
// per-request results leave it unchanged.
func (in *Instance) harvest(prev *core.Result) {
	if res := in.lastResult; res != nil && res != prev {
		in.stats.DegradedLayers += res.Degraded()
		in.stats.PressureReuse += res.PressureReuse
	}
}

// serve executes request idx under the policy's fault tolerance, records the
// outcome in the stats and emits the request's span. The returned error is
// the request's final typed error after retries, recovery and the deadline
// check.
func (in *Instance) serve(p *sim.Proc, idx int) (time.Duration, error) {
	start := p.Now()
	wasCold := !in.Warm()
	lat, err := in.serveChecked(p, idx)
	if in.policy.Rec != nil {
		track := "serving"
		attrs := []metrics.Attr{
			{Key: "model", Value: in.ms.Model.Name},
			{Key: "request", Value: fmt.Sprint(idx)},
			{Key: "cold", Value: fmt.Sprint(wasCold)},
		}
		if in.tenant != "" {
			track = "serving:" + in.tenant
			attrs = append(attrs, metrics.Attr{Key: "tenant", Value: in.tenant})
		}
		if err != nil {
			attrs = append(attrs, metrics.Attr{Key: "error", Value: err.Error()})
		}
		in.policy.Rec.Span(track, metrics.CatOther, fmt.Sprintf("request-%d", idx), start, p.Now(), attrs...)
	}
	return lat, err
}

func (in *Instance) serveChecked(p *sim.Proc, idx int) (time.Duration, error) {
	if !in.policy.FT.enabled() {
		prev := in.lastResult
		lat, err := in.Serve(p)
		if err == nil {
			in.harvest(prev)
		}
		return lat, err
	}
	lat, err := in.serveAttempts(p)
	if err == nil && in.policy.FT.Deadline > 0 && lat > in.policy.FT.Deadline {
		in.stats.DeadlineMisses++
		err = fmt.Errorf("%w: served in %v, deadline %v", ErrDeadlineExceeded, lat, in.policy.FT.Deadline)
	}
	if err != nil {
		in.stats.recordFailure(idx, err)
		return 0, err
	}
	return lat, nil
}

// serveAttempts retries a failing request on the live instance with capped
// exponential backoff from retryBackoff (seeded jitter), then declares the
// instance crashed, replaces it and makes one final attempt on the fresh
// process (which also starts with an empty negative load cache).
func (in *Instance) serveAttempts(p *sim.Proc) (time.Duration, error) {
	ft := in.policy.FT
	b := backoff{base: retryBackoff, max: maxRetryBackoff, seed: ft.BackoffSeed, key: in.ms.Spec.Abbr}
	var lat time.Duration
	err := b.retry(p, max(ft.MaxRetries, 0)+1, &in.stats.Retries, func(attempt int) (bool, error) {
		prev := in.lastResult
		var err error
		if lat, err = in.Serve(p); err == nil {
			in.harvest(prev)
		}
		return attempt < ft.MaxRetries, err
	})
	if err == nil {
		return lat, nil
	}
	in.stats.Crashes++
	in.replace()
	lat, rerr := in.Serve(p)
	if rerr != nil {
		return 0, fmt.Errorf("%w: %v (replacement failed: %w)", ErrInstanceCrashed, err, rerr)
	}
	in.stats.Recovered++
	in.harvest(nil)
	return lat, nil
}

// ServeTrace runs a single-instance scenario: requests arrive per the trace;
// the instance optionally background-loads in idle gaps. If evictEvery > 0,
// the instance is evicted after every evictEvery requests (edge memory
// pressure / suspend), forcing a fresh cold path. With fault tolerance and
// ContinueOnError set, per-request failures are recorded in the stats and
// the trace keeps going; otherwise the first failure aborts the run and the
// partial stats are returned alongside the error. A fault plan carrying a
// request flood is spliced into the trace before serving begins.
func ServeTrace(ms *experiments.ModelSetup, policy Policy, trace Trace, evictEvery int) (*Stats, error) {
	stats, _, err := serveSequential(ms, policy, trace, evictEvery, false)
	return stats, err
}

// SpotPreemption runs the preemptible-instance scenario: ServeTrace's loop,
// except that after every preemptEvery requests the instance is killed and
// replaced by a fresh process instead of evicted. Returns the stats and the
// number of migrations performed.
func SpotPreemption(ms *experiments.ModelSetup, policy Policy, trace Trace, preemptEvery int) (*Stats, int, error) {
	if preemptEvery <= 0 {
		return nil, 0, fmt.Errorf("serving: preemptEvery must be positive")
	}
	stats, migrations, err := serveSequential(ms, policy, trace, preemptEvery, true)
	if err != nil {
		return nil, 0, err
	}
	return stats, migrations, nil
}

// serveSequential serves the trace on one instance in arrival order. After
// every `every` requests (0: never) the instance is evicted, or — with
// preempt — replaced by a fresh one unless the trace is done; it returns
// the number of replacements.
func serveSequential(ms *experiments.ModelSetup, policy Policy, trace Trace, every int, preempt bool) (*Stats, int, error) {
	env := sim.NewEnv()
	if policy.Faults != nil {
		trace = ApplyFlood(trace, policy.Faults.Plan())
	}
	stats := &Stats{}
	in := newInstance(env, nil, ms, policy, stats, "")
	migrations := 0
	var runErr error
	env.Spawn("server", func(p *sim.Proc) {
		defer in.close()
		for i, req := range trace {
			if req.At > p.Now() {
				// Idle until the next arrival; use the gap productively.
				n, err := in.Idle(p, req.At-p.Now())
				if err != nil {
					runErr = err
					return
				}
				stats.BGLoads += n
				p.SleepUntil(req.At)
			}
			wasCold := !in.Warm()
			lat, err := in.serve(p, i)
			if err != nil {
				if policy.FT.ContinueOnError {
					continue
				}
				runErr = fmt.Errorf("request %d: %w", i, err)
				return
			}
			stats.Latencies = append(stats.Latencies, lat)
			if wasCold {
				stats.ColdStarts++
				stats.ColdLatencies = append(stats.ColdLatencies, lat)
			}
			switch {
			case every <= 0 || (i+1)%every != 0:
			case !preempt:
				in.Evict()
			case i != len(trace)-1:
				in.replace()
				migrations++
			}
		}
	})
	if err := env.Run(); err != nil {
		return nil, 0, err
	}
	return stats, migrations, runErr
}
