package serving

import (
	"fmt"
	"slices"
	"time"

	"pask/internal/backend"
	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/predict"
	"pask/internal/sim"
	"pask/internal/trace"
	"pask/internal/traffic"
	"pask/internal/warmup"
)

// Predictive arm names.
const (
	predArmCold       = "cold"
	predArmReplay     = "replay"
	predArmPredictive = "predictive"
)

// predictiveArms returns the comparison's arm names in run order.
func predictiveArms() []string {
	return []string{predArmCold, predArmReplay, predArmPredictive}
}

// The predictive scenario's fixed traffic shape and fleet policy.
const (
	// predMeanInterval is the baseline mean inter-arrival time.
	predMeanInterval = 25 * time.Millisecond
	// predExponent is the Zipf skew.
	predExponent = 1.3
	// predShiftFrac places the popularity re-rank (the initial ranking
	// reversed) as a fraction of the trace duration.
	predShiftFrac = 0.45
	// predCrowdPeak is the post-shift flash crowd's rate multiplier,
	// targeted at the new head model.
	predCrowdPeak = 4.0
	// predSlots is each node's concurrent-request capacity; arrivals beyond
	// the fleet's capacity spawn new nodes.
	predSlots = 2
	// predKeepAlive reaps nodes idle longer than this.
	predKeepAlive = 300 * time.Millisecond
	// predBudgetEntries caps what the replay and predictive arms may
	// prefetch per node: roughly two models' manifests, so proactive
	// loading must choose which models to cover. It cannot cover the whole
	// zoo.
	predBudgetEntries = 36
	// predConfidence is the predictor's minimum confidence. A prediction
	// must be better than a coin flip before it may spend budget: lower
	// thresholds let weak Markov transitions prefetch the whole zoo onto
	// every node, and the contention erases the win.
	predConfidence = 0.45
	predSeed       = 17 // drives the arrival generator
)

// predictiveRequests is the trace length.
func predictiveRequests(quick bool) int {
	if quick {
		return 110
	}
	return 240
}

// PredictiveCell is one (device, arm) measurement.
type PredictiveCell struct {
	Arm      string `json:"arm"`
	Requests int    `json:"requests"`
	Served   int    `json:"served"`
	Failed   int    `json:"failed"`
	// Nodes counts every node the elastic fleet spawned; Prewarmed the
	// subset the predictive arm brought up ahead of demand on the
	// estimator's onset signal.
	Nodes     int `json:"nodes"`
	Prewarmed int `json:"prewarmed"`
	// MeanTTFIMs is the mean time-to-first-inference over every served
	// request: arrival to inference completion, including any node
	// bring-up or instance initialization the request had to wait out.
	// ColdServes counts requests that landed on a fresh instance and
	// ColdMs averages just those — the cold-start tail the prefetchers
	// attack. Prewarming moves requests out of the cold bucket entirely,
	// so the headline is the all-requests mean.
	MeanTTFIMs float64 `json:"mean_ttfi_ms"`
	P95Ms      float64 `json:"p95_ms"`
	ColdServes int     `json:"cold_serves"`
	ColdMs     float64 `json:"cold_ms"`
	// Prefetch accounting, summed over per-node prefetchers on the shared
	// warmup scheme: hits (prefetched and used), misses (used, not
	// prefetched), wasted (prefetched, never used).
	PrefetchLoaded int     `json:"prefetch_loaded"`
	PrefetchHits   int     `json:"prefetch_hits"`
	PrefetchMisses int     `json:"prefetch_misses"`
	PrefetchWasted int     `json:"prefetch_wasted"`
	HitRate        float64 `json:"hit_rate"`
}

// PredictiveDeviceResult groups one device profile's cells.
type PredictiveDeviceResult struct {
	Device string           `json:"device"`
	Cells  []PredictiveCell `json:"cells"`
}

// PredictiveBench is the machine-readable result for BENCH_predictive.json.
type PredictiveBench struct {
	Experiment string                   `json:"experiment"`
	Models     []string                 `json:"models"`
	Batch      int                      `json:"batch"`
	Seed       int64                    `json:"seed"`
	Requests   int                      `json:"requests"`
	ShiftAtMs  float64                  `json:"shift_at_ms"`
	Devices    []PredictiveDeviceResult `json:"devices"`
}

// predictiveArrivals builds the trace of `requests` arrivals over models
// that every arm and device replays: diurnal-modulated Zipfian arrivals
// whose popularity ranking reverses at the shift, followed by a flash crowd
// on the new head model.
func predictiveArrivals(models []string, requests int) ([]traffic.Request, time.Duration, error) {
	total := time.Duration(requests) * predMeanInterval
	shiftAt := time.Duration(predShiftFrac * float64(total))
	reversed := make([]int, len(models))
	for i := range reversed {
		reversed[i] = len(models) - 1 - i
	}
	gen, err := traffic.New(traffic.Config{
		Models:   models,
		Exponent: predExponent,
		Rate:     float64(time.Second) / float64(predMeanInterval),
		Diurnal:  traffic.Diurnal{Period: total / 2, Amplitude: 0.3},
		Shifts:   []traffic.Shift{{At: shiftAt, Rank: reversed}},
		Crowds: []traffic.FlashCrowd{{
			Onset: shiftAt + total*15/100,
			Ramp:  total * 8 / 100,
			Hold:  total * 12 / 100,
			Decay: total * 8 / 100,
			Peak:  predCrowdPeak,
			Model: models[len(models)-1],
		}},
		Seed: predSeed,
	})
	if err != nil {
		return nil, 0, err
	}
	return gen.Generate(requests), shiftAt, nil
}

// predNode is one elastic fleet member: a shared-GPU host whose tenants
// are the model instances routed to it, plus the arm's prefetcher.
type predNode struct {
	id    int
	host  *GPUHost
	used  *warmup.Recorder // object paths this node's tenants actually used
	insts map[string]*Instance
	busy  map[string]bool    // per-instance in-flight flag
	load  int                // in-flight requests on this node
	idle  time.Duration      // when the node last went idle
	pf    *warmup.Prefetcher // the arm's prefetcher; nil when the arm has none
	gone  bool
}

// predMaxPrewarms caps onset-triggered node prewarms per run: prewarming
// is speculative spend, so it is budgeted like prefetch entries.
// predOnsetStreak is how many consecutive arrivals the rate estimator must
// report an onset before the cluster acts on it.
const (
	predMaxPrewarms = 6
	predOnsetStreak = 3
)

// predCluster runs one arm of the experiment: an elastic fleet in one
// virtual-time environment.
type predCluster struct {
	env       *sim.Env
	models    []string // in initial popularity order
	prof      device.Profile
	setups    map[string]*experiments.ModelSetup
	manifests map[string]*warmup.Manifest
	prior     *warmup.Manifest
	arm       string
	rec       *trace.Recorder // predictive arm of the first device only

	pred        *predict.Predictor
	est         *traffic.RateEstimator
	onsetStreak int
	prewarms    int

	nodes []*predNode
	procs *inflight // serve and prewarm procs

	cell    PredictiveCell
	lats    []time.Duration
	coldSum time.Duration
}

// newNode spawns a fresh shared-GPU node and starts the arm's bring-up
// prefetch: the replay arm replays the prior run's (pre-shift) profile,
// the predictive arm prefetches the models currently predicted hot.
func (c *predCluster) newNode() *predNode {
	n := &predNode{
		id:    len(c.nodes),
		host:  NewGPUHost(backend.New(c.env, device.NewGPU(c.env, c.prof), device.DefaultHost(), c.setups[c.models[0]].Store, backend.FlavorFor(c.prof.Arch))),
		used:  warmup.NewRecorder(),
		insts: make(map[string]*Instance),
		busy:  make(map[string]bool),
		idle:  c.env.Now(),
	}
	switch c.arm {
	case predArmReplay:
		if len(c.prior.Entries) > 0 {
			n.pf = warmup.Start(c.env, n.host.Root(), c.prior, nil)
		}
	case predArmPredictive:
		n.pf = warmup.StartPredictive(c.env, n.host.Root(), c.manifests, predBudgetEntries, nil)
		n.pf.Prefetch(c.bringup()...)
	}
	c.nodes = append(c.nodes, n)
	c.cell.Nodes++
	return n
}

// hotModels returns the k models the predictor currently ranks hottest,
// falling back to the head of the initial ranking before any traffic was
// observed (the same prior knowledge the replay arm starts from).
func (c *predCluster) hotModels(k int) []string {
	hot := c.pred.Hot(k)
	if len(hot) == 0 {
		return slices.Clone(c.models[:min(k, len(c.models))])
	}
	out := make([]string, len(hot))
	for i, h := range hot {
		out[i] = h.Item
	}
	return out
}

// bringup returns the models a fresh predictive node prefetches: the two
// models the live ranking puts on top — the same breadth the replay arm's
// prior profile has, but ranked by what is hot NOW rather than what was
// hot when the prior run recorded its profile. Loads hold the driver lock
// for milliseconds each, so breadth beyond the budget is not attempted;
// the Markov follow-ups fill in the rest on demand evidence.
func (c *predCluster) bringup() []string { return c.hotModels(2) }

// instance creates the node's tenant instance for model, wiring the
// node's used-object recorder into the executor's profile seam so
// prefetch accounting knows what the node really consumed.
func (c *predCluster) instance(n *predNode, model string) *Instance {
	pol := Policy{Scheme: core.SchemePaSK, Rec: c.rec}
	pol.Options.Profile = n.used
	in := newInstance(c.env, n.host, c.setups[model], pol, &Stats{}, fmt.Sprintf("%s@n%d", model, n.id))
	n.insts[model] = in
	return in
}

// ensureHeadroom keeps one spare node's worth of capacity open, the
// standard autoscaling hedge against a full fleet. The spare is where
// proactive loading earns its name: its bring-up prefetch runs before any
// traffic lands on it, so by the time scale-out routes a request there
// the predicted objects are resident. Every arm shares this policy — they
// differ only in what (if anything) the spare preloads.
func (c *predCluster) ensureHeadroom() {
	free := 0
	for _, n := range c.nodes {
		if !n.gone {
			free += predSlots - n.load
		}
	}
	if free <= 0 {
		c.newNode()
	}
}

// route picks the serving node for a request: a node with an idle warm
// instance of the model first, then any node with a free slot and no
// instance of the model yet, else a fresh node — the elastic scale-out
// whose cold starts this experiment measures.
func (c *predCluster) route(model string) *predNode {
	for _, n := range c.nodes {
		if !n.gone && n.load < predSlots && n.insts[model] != nil && !n.busy[model] {
			return n
		}
	}
	for _, n := range c.nodes {
		if !n.gone && n.load < predSlots && n.insts[model] == nil {
			return n
		}
	}
	return c.newNode()
}

// reap closes nodes idle longer than the keep-alive: their prefetchers
// stop, and the next arrival for their models pays a fresh node bring-up.
func (c *predCluster) reap(now time.Duration) {
	for _, n := range c.nodes {
		if !n.gone && n.load == 0 && len(n.insts) > 0 && now-n.idle > predKeepAlive {
			n.gone = true
			if n.pf != nil {
				n.pf.Close()
			}
		}
	}
}

// slot runs fn as a tracked proc on one of node n's slots, with model's
// instance marked busy; the node's idle clock restarts when fn returns.
func (c *predCluster) slot(n *predNode, model, name string, fn func(p *sim.Proc)) {
	n.load++
	n.busy[model] = true
	c.procs.spawn(name, func(p *sim.Proc) {
		fn(p)
		n.load--
		n.busy[model] = false
		n.idle = p.Now()
	})
}

// serve dispatches one request onto node n in its own proc.
func (c *predCluster) serve(n *predNode, model string, i int) {
	c.slot(n, model, fmt.Sprintf("serve-%d", i), func(p *sim.Proc) {
		t0 := p.Now()
		inst := n.insts[model]
		if inst == nil {
			inst = c.instance(n, model)
		}
		coldStart := !inst.Warm()
		_, err := inst.Serve(p)
		ttfi := p.Now() - t0
		if err != nil {
			c.cell.Failed++
		} else {
			c.cell.Served++
			c.lats = append(c.lats, ttfi)
			c.rec.Count("predictive_ttfi_ms", p.Now(), millis(ttfi))
			if coldStart {
				c.cell.ColdServes++
				c.coldSum += ttfi
			}
		}
	})
}

// prewarm spawns a node ahead of demand on the estimator's onset signal
// and primes instances for the predicted-hot models, so the flash crowd
// lands on warm capacity. Priming serves count as prewarm work, not as
// user traffic.
func (c *predCluster) prewarm() {
	c.prewarms++
	c.cell.Prewarmed++
	n := c.newNode()
	c.rec.Instant("serving", "predictive-prewarm", c.env.Now())
	for _, model := range c.hotModels(2) {
		model := model
		c.slot(n, model, fmt.Sprintf("prewarm-n%d-%s", n.id, model), func(p *sim.Proc) {
			inst := c.instance(n, model)
			if _, err := inst.Serve(p); err != nil {
				c.cell.Failed++
			}
		})
	}
}

// dispatch is the arm's traffic thread: replay the arrival trace, then
// drain, stop every prefetcher and reconcile the accounting.
func (c *predCluster) dispatch(p *sim.Proc, arrivals []traffic.Request) {
	for i, r := range arrivals {
		p.SleepUntil(r.At)
		c.reap(p.Now())
		if c.arm == predArmPredictive {
			c.est.Observe(r.At)
			if c.est.Onset() {
				c.onsetStreak++
			} else {
				c.onsetStreak = 0
			}
			// A single over-threshold window is as likely Poisson noise as
			// ramp; a real flash crowd keeps the estimator pinned, so act
			// only once the signal persists.
			if c.onsetStreak >= predOnsetStreak {
				// An onset ramp is the one moment demand is predictable:
				// bring spare capacity up before the peak (one node per
				// arrival up to the cap), and push the hot models to every
				// running node so the crowd's overflow lands on residency
				// loaded during the ramp, not during the peak. Prefetch
				// dedups per node, so repeating this every onset arrival
				// is free.
				if c.prewarms < predMaxPrewarms {
					c.prewarm()
				}
				hot := c.hotModels(2)
				for _, live := range c.nodes {
					if !live.gone && live.pf != nil {
						live.pf.Prefetch(hot...)
					}
				}
			}
			c.pred.Observe(r.Model)
		}
		n := c.route(r.Model)
		c.serve(n, r.Model, i)
		c.ensureHeadroom()
		if c.arm == predArmPredictive && n.pf != nil {
			// Cross-tenant follow-up: whatever tends to come after this
			// model gets prefetched on the node that just took the request,
			// ahead of the tenant that will need it.
			for _, f := range c.pred.Follow(r.Model) {
				n.pf.Prefetch(f.Item)
			}
		}
	}
	// Drain by re-checking at each completion, not by one wait for the
	// last: the traced arm samples every dispatch, so these wakes are part
	// of its trace.
	for c.procs.running > 0 {
		c.procs.next(p)
	}
	for _, n := range c.nodes {
		if n.pf != nil {
			n.pf.Close()
			n.pf.Wait(p)
		}
	}
	for _, n := range c.nodes {
		used := n.used.Paths()
		if n.pf != nil {
			c.addPrefetch(n.pf.Account(used, p.Now()))
		} else {
			// No prefetcher: every used object was a demand load.
			c.cell.PrefetchMisses += len(used)
		}
		n.host.Close()
	}
}

func (c *predCluster) addPrefetch(st warmup.ReplayStats) {
	c.cell.PrefetchLoaded += st.Loaded
	c.cell.PrefetchHits += st.Hits
	c.cell.PrefetchMisses += st.Misses
	c.cell.PrefetchWasted += st.Wasted
}

// finalize computes the cell's derived metrics.
func (c *predCluster) finalize() PredictiveCell {
	cell := c.cell
	if cell.ColdServes > 0 {
		cell.ColdMs = millis(c.coldSum / time.Duration(cell.ColdServes))
	}
	if len(c.lats) > 0 {
		cell.MeanTTFIMs = millis(meanDuration(c.lats))
		sorted := slices.Clone(c.lats)
		slices.Sort(sorted)
		cell.P95Ms = millis(sorted[len(sorted)*95/100])
	}
	if denom := cell.PrefetchHits + cell.PrefetchMisses; denom > 0 {
		cell.HitRate = float64(cell.PrefetchHits) / float64(denom)
	}
	return cell
}

// runPredictiveArm serves the trace through one arm's elastic fleet.
func runPredictiveArm(models []string, prof device.Profile, setups map[string]*experiments.ModelSetup,
	manifests map[string]*warmup.Manifest, prior *warmup.Manifest,
	arrivals []traffic.Request, arm string, rec *trace.Recorder) (PredictiveCell, error) {
	env := sim.NewEnv()
	c := &predCluster{
		env: env, models: models, prof: prof, setups: setups, manifests: manifests,
		prior: prior, arm: arm, rec: rec, procs: newInflight(env),
		pred: predict.New(predict.Config{MinConfidence: predConfidence, Budget: 2, DecayEvery: 32}),
		est:  traffic.NewRateEstimator(12, 96, 2.0),
	}
	c.cell = PredictiveCell{Arm: arm, Requests: len(arrivals)}
	env.Spawn("traffic", func(p *sim.Proc) { c.dispatch(p, arrivals) })
	if err := env.Run(); err != nil {
		return PredictiveCell{}, fmt.Errorf("predictive %s/%s: %w", prof.Name, arm, err)
	}
	cell := c.finalize()
	if rec != nil && arm == predArmPredictive {
		at := env.Now()
		rec.Count("warmup_prefetch_hits", at, float64(cell.PrefetchHits))
		rec.Count("warmup_prefetch_misses", at, float64(cell.PrefetchMisses))
		rec.Count("warmup_prefetch_wasted", at, float64(cell.PrefetchWasted))
		rec.Count("predictive_nodes", at, float64(cell.Nodes))
		rec.Count("predictive_prewarms", at, float64(cell.Prewarmed))
	}
	return cell, nil
}

// Predictive runs the predictive proactive-loading experiment: an elastic
// fleet of shared-GPU nodes serves a shifting Zipfian trace (popularity
// re-ranked mid-run, flash crowd on the new head) under three arms — no
// prefetch, replay of a prior run's pre-shift profile at node bring-up,
// and online prediction (Markov chain + aged frequency sketch) with
// budgeted bring-up/follow-up prefetch plus onset-triggered prewarming.
// Per-node hit/miss/waste accounting lands on the shared
// warmup_prefetch_{hits,misses,wasted} scheme. Traffic draws from o.Models
// in initial popularity order (default alex, res, vgg) at the first selected
// batch (default and minimum 1); o.Quick shortens the trace, and o.Trace
// captures the first device's predictive-arm timeline and aggregate
// prefetch counters. The result carries the table and a *PredictiveBench.
func Predictive(o experiments.Options) (*experiments.Result, error) {
	models := o.Models
	if len(models) == 0 {
		models = []string{"alex", "res", "vgg"}
	}
	batch := max(o.Batch(), 1)
	arrivals, shiftAt, err := predictiveArrivals(models, predictiveRequests(o.Quick))
	if err != nil {
		return nil, err
	}
	table := &experiments.Table{
		ID: "Predictive",
		Title: fmt.Sprintf("predictive proactive loading: %v b%d, %d arrivals, re-rank at %.0fms + %gx crowd",
			models, batch, len(arrivals), millis(shiftAt), predCrowdPeak),
		Headers: []string{"device", "arm", "nodes", "prewarm", "ttfi_ms", "p95_ms", "cold", "cold_ms",
			"pf_hits", "pf_miss", "pf_waste", "hit_rate", "failed"},
		Notes: []string{
			"ttfi_ms is mean arrival-to-completion over ALL served requests; cold/cold_ms break out serves that hit a fresh instance",
			"replay prefetches a prior (pre-shift) profile per node; predictive learns the live ranking online",
			fmt.Sprintf("prefetch budget %d entries/node, confidence %.2f, keep-alive %v, %d slots/node",
				predBudgetEntries, predConfidence, predKeepAlive, predSlots),
			fmt.Sprintf("seed=%d; the bench JSON is byte-identical across runs", predSeed),
		},
	}
	bench := &PredictiveBench{
		Experiment: "predictive", Models: models, Batch: batch, Seed: predSeed,
		Requests: len(arrivals), ShiftAtMs: millis(shiftAt),
	}

	for devIdx, prof := range device.Profiles() {
		setups, err := experiments.PrepareModelsShared(models, batch, prof)
		if err != nil {
			return nil, err
		}
		manifests := make(map[string]*warmup.Manifest, len(models))
		for _, m := range models {
			ms := setups[m]
			man, err := warmup.FromModel(ms.Model, ms.Reg, ms.Store, prof)
			if err != nil {
				return nil, err
			}
			manifests[m] = man
		}
		// The prior profile is what a pre-shift run recorded: the models
		// that were hot under the initial ranking (the top two; the Zipf
		// tail barely registers in a recorded profile), capped at the same
		// budget the predictive arm gets.
		prior := &warmup.Manifest{Version: warmup.Version, Model: "prior",
			Device: prof.Name, Arch: prof.Arch}
		for _, m := range models[:min(2, len(models))] {
			for _, e := range manifests[m].Entries {
				if len(prior.Entries) >= predBudgetEntries {
					break
				}
				prior.Entries = append(prior.Entries, e)
			}
		}

		dr := PredictiveDeviceResult{Device: prof.Name}
		var rec *trace.Recorder
		if devIdx == 0 {
			rec = o.Trace
		}
		for _, arm := range predictiveArms() {
			cell, err := runPredictiveArm(models, prof, setups, manifests, prior, arrivals, arm, rec)
			if err != nil {
				return nil, err
			}
			dr.Cells = append(dr.Cells, cell)
			table.Rows = append(table.Rows, []string{
				prof.Name, arm, fmt.Sprintf("%d", cell.Nodes), fmt.Sprintf("%d", cell.Prewarmed),
				fmt.Sprintf("%.2f", cell.MeanTTFIMs), fmt.Sprintf("%.2f", cell.P95Ms),
				fmt.Sprintf("%d", cell.ColdServes), fmt.Sprintf("%.2f", cell.ColdMs),
				fmt.Sprintf("%d", cell.PrefetchHits), fmt.Sprintf("%d", cell.PrefetchMisses),
				fmt.Sprintf("%d", cell.PrefetchWasted), fmt.Sprintf("%.2f", cell.HitRate),
				fmt.Sprintf("%d", cell.Failed),
			})
		}
		bench.Devices = append(bench.Devices, dr)
	}
	return &experiments.Result{Tables: []*experiments.Table{table}, Bench: bench}, nil
}
