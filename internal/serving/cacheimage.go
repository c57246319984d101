package serving

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"pask/internal/cacheimg"
	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/sim"
	"pask/internal/trace"
	"pask/internal/warmup"
)

// pullDuration is the virtual-time cost of pulling one cache image of
// `bytes` payload to a node: a registry-ish fixed 400µs per-pull setup plus
// the payload at a sustained 1 GiB/s.
func pullDuration(bytes int64) time.Duration {
	const (
		latency     = 400 * time.Microsecond
		bytesPerSec = float64(1 << 30)
	)
	return latency + time.Duration(float64(bytes)/bytesPerSec*float64(time.Second))
}

// The distribution scenario's fixed parameters.
const (
	// cacheImagePullAttempts bounds per-node transfer attempts (truncated
	// pulls retry with the fleet's capped-jitter backoff) before the node
	// abandons seeding and serves cold.
	cacheImagePullAttempts = 3
	// The chaos arm's fault rates: per-pull corruption, per-attempt
	// truncation, per-node death. The sweep cells run fault-free.
	cacheImageChaosCorrupt  = 0.35
	cacheImageChaosTruncate = 0.35
	cacheImageChaosKill     = 0.25
	// cacheImageSeed drives the fault streams and backoff jitter.
	cacheImageSeed = 13
)

// cacheImageSweep returns the fleet sizes and the fractions of each fleet
// pre-seeded with the image. Coverage 0 is the all-cold baseline; the chaos
// arm reruns the largest fleet.
func cacheImageSweep(quick bool) (nodes []int, coverages []float64) {
	if quick {
		return []int{3}, []float64{0, 1}
	}
	return []int{4, 8}, []float64{0, 0.5, 1}
}

// CacheImageCell is one (device, fleet size, coverage) measurement.
type CacheImageCell struct {
	Nodes    int     `json:"nodes"`
	Coverage float64 `json:"coverage"`
	// Seeded nodes were targeted by the distributor; Attached ones ended up
	// serving from a validated image. The difference is the degradation the
	// chaos arm measures: every non-attached node served cold, correctly.
	Seeded   int `json:"seeded"`
	Attached int `json:"attached"`
	// Pull-side fault accounting.
	PullRetries int `json:"pull_retries"`
	PullCorrupt int `json:"pull_corrupt"`
	NodesKilled int `json:"nodes_killed"`
	// Attach-side validation-ladder accounting, summed over node stores.
	Quarantined     int `json:"quarantined"`
	RejectedProfile int `json:"rejected_profile"`
	StaleRejects    int `json:"stale_rejects"`
	// Serve outcomes. WarmMeanMs averages attached nodes' first-request
	// TTFI, ColdMeanMs the rest; Speedup is cold/warm when both exist.
	Served     int     `json:"served"`
	Failed     int     `json:"failed"`
	WarmMeanMs float64 `json:"warm_mean_ms,omitempty"`
	ColdMeanMs float64 `json:"cold_mean_ms,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	// StoreUntouched asserts the shared code-object store's fingerprint
	// survived the cell unchanged — distribution faults never write back.
	StoreUntouched bool `json:"store_untouched"`
}

// CacheImageDeviceResult groups one device profile's cells.
type CacheImageDeviceResult struct {
	Device     string           `json:"device"`
	ImageID    string           `json:"image_id"`
	ImageBytes int              `json:"image_bytes"`
	Objects    int              `json:"objects"`
	RecordMs   float64          `json:"record_ms"` // the one cold run that paid for the image
	Cells      []CacheImageCell `json:"cells"`
	Chaos      *CacheImageCell  `json:"chaos"`
}

// CacheImageBench is the machine-readable result emitted as
// BENCH_cacheimage.json.
type CacheImageBench struct {
	Experiment string                   `json:"experiment"`
	Model      string                   `json:"model"`
	Batch      int                      `json:"batch"`
	Seed       int64                    `json:"seed"`
	Devices    []CacheImageDeviceResult `json:"devices"`
}

// pullFaults are the image-distribution faults of one cell, each rate a
// probability in [0,1]: corrupt per pull attempt, truncate per attempt and
// kill per node. The zero value injects nothing.
type pullFaults struct {
	seed                    int64
	corrupt, truncate, kill float64
}

// pullOutcome is the fate of one cache-image pull attempt.
type pullOutcome int

const (
	pullOK        pullOutcome = iota // the bytes land intact
	pullCorrupt                      // the bytes land damaged; attach catches it
	pullTruncated                    // nothing lands; the puller retries
	pullKilled                       // the node dies and serves cold
)

// outcome rolls the fate of one pull attempt by node. Node death is rolled
// once per node (attempt-independent) and wins over the transfer faults;
// truncation is rolled per attempt, so a retried pull faces fresh odds and
// bounded retry can win; corruption is rolled per attempt after truncation.
// Deterministic in (seed, node, attempt).
func (f pullFaults) outcome(node string, attempt int) pullOutcome {
	switch {
	case f.kill > 0 && faults.Roll(f.seed, "img-kill", node, 0) < f.kill:
		return pullKilled
	case f.truncate > 0 && faults.Roll(f.seed, "img-trunc", node, attempt) < f.truncate:
		return pullTruncated
	case f.corrupt > 0 && faults.Roll(f.seed, "img-corrupt", node, attempt) < f.corrupt:
		return pullCorrupt
	}
	return pullOK
}

// cacheImageFleet is the per-cell distribution state shared by node procs.
type cacheImageFleet struct {
	ms      *experiments.ModelSetup
	img     *cacheimg.Image
	raw     []byte
	id      string
	faults  pullFaults
	baseDir string
	// rec is the run's recorder on the first device only (the overload
	// experiment's convention): one device's chaos arm lands on the
	// timeline.
	rec *trace.Recorder
}

// nodeResult is one node's distribution + first-serve outcome.
type nodeResult struct {
	attached bool
	lat      time.Duration
	err      error
	store    *cacheimg.Store
	retries  int
	killed   bool
	corrupt  bool
}

// errPullFailed marks a node whose image never landed: it was killed, or
// every transfer attempt was truncated.
var errPullFailed = errors.New("serving: cache image pull failed")

// pull distributes the image to one node over the transfer model,
// rolling its pull faults per attempt: truncated transfers retry
// with the fleet's capped-jitter backoff (waited out after the last
// attempt too), a killed node abandons distribution entirely, and a
// corrupt transfer lands damaged bytes under the advertised ID (atomically
// — torn writes are the store's problem, corruption the attach ladder's).
// Returns whether any bytes landed.
func (f *cacheImageFleet) pull(p *sim.Proc, node string, res *nodeResult) bool {
	b := backoff{base: 500 * time.Microsecond, max: 4 * time.Millisecond, seed: cacheImageSeed, key: node}
	err := b.retry(p, cacheImagePullAttempts, &res.retries, func(attempt int) (bool, error) {
		p.Sleep(pullDuration(int64(len(f.raw))))
		data := f.raw
		switch f.faults.outcome(node, attempt) {
		case pullKilled:
			res.killed = true
			return false, errPullFailed
		case pullTruncated:
			return true, errPullFailed
		case pullCorrupt:
			res.corrupt = true
			data = make([]byte, len(f.raw))
			copy(data, f.raw)
			data[len(data)/2] ^= 0x01
		}
		return false, res.store.PublishBytes(f.id, data)
	})
	return err == nil
}

// runCell distributes the image to `seeded` of `nodes` nodes and serves one
// request per node. decoys, when true (chaos arm), additionally plants a
// wrong-device image on node 0 and a stale-fingerprint image on node 1 —
// both structurally valid, so they exercise the typed-reject rungs of the
// attach ladder rather than quarantine.
func (f *cacheImageFleet) runCell(nodes int, coverage float64, decoys bool) (CacheImageCell, error) {
	cell := CacheImageCell{Nodes: nodes, Coverage: coverage}
	cell.Seeded = int(math.Round(coverage * float64(nodes)))
	fpBefore := f.ms.Store.Fingerprint()

	env := sim.NewEnv()
	results := make([]nodeResult, nodes)
	for i := 0; i < nodes; i++ {
		dir, err := os.MkdirTemp(f.baseDir, "node-*")
		if err != nil {
			return cell, fmt.Errorf("serving: cacheimage node dir: %w", err)
		}
		store, err := cacheimg.Open(dir)
		if err != nil {
			return cell, err
		}
		results[i].store = store
	}
	if decoys && nodes >= 2 {
		if err := f.plantDecoys(results[0].store, results[1].store); err != nil {
			return cell, err
		}
	}

	for i := 0; i < nodes; i++ {
		i := i
		node := fmt.Sprintf("node-%d-of-%d", i, nodes)
		env.Spawn(node, func(p *sim.Proc) {
			res := &results[i]
			landed := false
			if i < cell.Seeded && !(decoys && i < 2) {
				landed = f.pull(p, node, res)
			}
			pol := Policy{Scheme: core.SchemePaSK, Rec: f.rec}
			if landed || (decoys && i < 2) {
				if att, err := res.store.Attach(f.ms.Spec.Abbr, f.ms.Profile, f.ms.Store.Fingerprint()); err == nil {
					res.attached = true
					pol.Warmup = map[string]*warmup.Manifest{f.ms.Spec.Abbr: att.Image.Manifest}
				}
			}
			// TTFI is measured from instance creation: process bring-up is
			// included, because that is the window manifest replay overlaps
			// (the same clock WarmupRun.TTFI uses, unlike Serve's internal
			// latency, which starts after context init).
			t0 := p.Now()
			in := newInstance(env, nil, f.ms, pol, &Stats{}, "")
			defer in.close()
			_, res.err = in.serve(p, i)
			res.lat = p.Now() - t0
		})
	}
	if err := env.Run(); err != nil {
		return cell, err
	}

	var warmSum, coldSum time.Duration
	var warmN, coldN int
	for i := range results {
		res := &results[i]
		st := res.store.Stats()
		cell.Quarantined += st.Quarantined
		cell.RejectedProfile += st.RejectedProfile
		cell.StaleRejects += st.Stale
		cell.PullRetries += res.retries
		if res.killed {
			cell.NodesKilled++
		}
		if res.corrupt {
			cell.PullCorrupt++
		}
		if res.attached {
			cell.Attached++
		}
		if res.err != nil {
			cell.Failed++
			continue
		}
		cell.Served++
		if res.attached {
			warmSum += res.lat
			warmN++
		} else {
			coldSum += res.lat
			coldN++
		}
	}
	if warmN > 0 {
		cell.WarmMeanMs = millis(warmSum / time.Duration(warmN))
	}
	if coldN > 0 {
		cell.ColdMeanMs = millis(coldSum / time.Duration(coldN))
	}
	if warmN > 0 && coldN > 0 && cell.WarmMeanMs > 0 {
		cell.Speedup = cell.ColdMeanMs / cell.WarmMeanMs
	}
	cell.StoreUntouched = f.ms.Store.Fingerprint() == fpBefore
	if decoys && f.rec != nil {
		emitCounters(f.rec, env.Now(), cell)
	}
	return cell, nil
}

// plantDecoys publishes two structurally valid but unattachable images:
// one built for a different device profile, one sealed against a different
// store fingerprint. Their targets never receive the real image, so their
// attaches must walk the typed-reject rungs and serve cold.
func (f *cacheImageFleet) plantDecoys(profileStore, staleStore *cacheimg.Store) error {
	wrong := *f.img
	for _, prof := range device.Profiles() {
		if prof.Name != f.ms.Profile.Name {
			wrong.Device, wrong.Arch = prof.Name, prof.Arch
			break
		}
	}
	if _, err := profileStore.Publish(&wrong); err != nil {
		return err
	}
	stale := *f.img
	stale.StoreFingerprint++
	if _, err := staleStore.Publish(&stale); err != nil {
		return err
	}
	return nil
}

// emitCounters lands the chaos arm's distribution and validation counters
// on the timeline so rejects and quarantines are observable (they also
// surface as pask_cacheimg_* in /metrics through the same recorder).
func emitCounters(rec *trace.Recorder, at time.Duration, cell CacheImageCell) {
	rec.Count("cacheimg_attach_ok", at, float64(cell.Attached))
	rec.Count("cacheimg_quarantined", at, float64(cell.Quarantined))
	rec.Count("cacheimg_reject_profile", at, float64(cell.RejectedProfile))
	rec.Count("cacheimg_reject_stale", at, float64(cell.StaleRejects))
	rec.Count("cacheimg_pull_retries", at, float64(cell.PullRetries))
	rec.Count("cacheimg_pull_corrupt", at, float64(cell.PullCorrupt))
	rec.Count("cacheimg_nodes_killed", at, float64(cell.NodesKilled))
}

// CacheImage runs the cache-image distribution experiment: on every device
// profile, one recorded cold run is sealed into a content-addressed image,
// a seeder distributes it to N-node fleets at varying coverage over the
// transfer model, and every node serves its first request — attached nodes
// replay the image's manifest, the rest start cold. A chaos arm then
// re-runs the largest fleet at full coverage under corruption, truncation
// and node-death injection plus two planted decoy images, proving every
// failure mode degrades to a correct cold start (zero failed requests,
// shared store untouched) with the rejections counted. It distributes the
// first selected model (default res, quick alex) at the first selected
// batch (default and minimum 1); o.Quick shrinks the sweep, and o.Trace
// captures the first device's chaos-arm attach/reject counters. The result
// carries the table and a *CacheImageBench.
func CacheImage(o experiments.Options) (*experiments.Result, error) {
	def := "res"
	if o.Quick {
		def = "alex"
	}
	model, batch := o.Model(def), max(o.Batch(), 1)
	nodeSizes, coverages := cacheImageSweep(o.Quick)
	table := &experiments.Table{
		ID: "CacheImage",
		Title: fmt.Sprintf("cache-image distribution: %s b%d, fleets %v, coverage %v",
			model, batch, nodeSizes, coverages),
		Headers: []string{"device", "arm", "nodes", "cover", "seeded", "attached",
			"warm_ms", "cold_ms", "speedup", "retries", "quar", "rejects", "killed", "failed"},
		Notes: []string{
			"warm_ms averages first-request TTFI on nodes serving from a validated image; cold_ms the rest",
			"chaos arm injects pull corruption/truncation/node death + planted decoy images; failed must stay 0",
			fmt.Sprintf("seed=%d; the bench JSON is byte-identical across runs", cacheImageSeed),
		},
	}
	bench := &CacheImageBench{Experiment: "cacheimage", Model: model, Batch: batch, Seed: cacheImageSeed}

	baseDir, err := os.MkdirTemp("", "pask-cacheimage-*")
	if err != nil {
		return nil, fmt.Errorf("serving: cacheimage workdir: %w", err)
	}
	defer os.RemoveAll(baseDir)

	for devIdx, prof := range device.Profiles() {
		ms, err := experiments.PrepareModel(model, batch, prof)
		if err != nil {
			return nil, err
		}
		img, wr, err := ms.BuildCacheImage()
		if err != nil {
			return nil, fmt.Errorf("cacheimage %s: %w", prof.Name, err)
		}
		raw, err := img.Encode()
		if err != nil {
			return nil, err
		}
		dr := CacheImageDeviceResult{
			Device: prof.Name, ImageID: cacheimg.ID(raw), ImageBytes: len(raw),
			Objects:  len(img.Objects),
			RecordMs: millis(wr.TTFI),
		}
		fleet := &cacheImageFleet{ms: ms, img: img, raw: raw, id: dr.ImageID, baseDir: baseDir}
		if devIdx == 0 {
			fleet.rec = o.Trace
		}

		row := func(arm string, cell CacheImageCell) {
			table.Rows = append(table.Rows, []string{
				prof.Name, arm, fmt.Sprintf("%d", cell.Nodes), fmt.Sprintf("%.0f%%", 100*cell.Coverage),
				fmt.Sprintf("%d", cell.Seeded), fmt.Sprintf("%d", cell.Attached),
				fmt.Sprintf("%.2f", cell.WarmMeanMs), fmt.Sprintf("%.2f", cell.ColdMeanMs),
				fmt.Sprintf("%.2f", cell.Speedup), fmt.Sprintf("%d", cell.PullRetries),
				fmt.Sprintf("%d", cell.Quarantined), fmt.Sprintf("%d", cell.RejectedProfile+cell.StaleRejects),
				fmt.Sprintf("%d", cell.NodesKilled), fmt.Sprintf("%d", cell.Failed),
			})
		}

		// Sweep cells run distribution fault-free: coverage is the variable.
		for _, nodes := range nodeSizes {
			for _, cov := range coverages {
				cell, err := fleet.runCell(nodes, cov, false)
				if err != nil {
					return nil, fmt.Errorf("cacheimage %s n=%d c=%.2f: %w", prof.Name, nodes, cov, err)
				}
				dr.Cells = append(dr.Cells, cell)
				row("sweep", cell)
			}
		}

		// Chaos arm: largest fleet, full coverage, the full fault menu.
		fleet.faults = pullFaults{seed: cacheImageSeed, corrupt: cacheImageChaosCorrupt,
			truncate: cacheImageChaosTruncate, kill: cacheImageChaosKill}
		chaosNodes := nodeSizes[len(nodeSizes)-1]
		chaos, err := fleet.runCell(chaosNodes, 1, true)
		if err != nil {
			return nil, fmt.Errorf("cacheimage %s chaos: %w", prof.Name, err)
		}
		dr.Chaos = &chaos
		row("chaos", chaos)
		bench.Devices = append(bench.Devices, dr)
	}
	return &experiments.Result{Tables: []*experiments.Table{table}, Bench: bench}, nil
}
