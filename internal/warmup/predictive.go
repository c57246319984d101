package warmup

import (
	"time"

	"pask/internal/backend"
	"pask/internal/sim"
	"pask/internal/trace"
)

// PredictivePrefetcher loads predicted-hot models' code objects through a
// shared backend runtime ahead of demand. Where the replay Prefetcher
// walks one recorded manifest for the instance that spawned it, the
// predictive prefetcher is fed model names over time — by whatever is
// watching the live request stream — and replays each model's manifest
// through its own "predict" tenant view, so prefetched residency is
// cross-tenant: an object loaded for a predicted model is immediately
// warm for the tenant that eventually serves it.
//
// It shares the replay prefetcher's accounting: per-entry classification
// into ReplayStats and the warmup_prefetch_{hits,misses,wasted} counters
// via Account.
type PredictivePrefetcher struct {
	view      backend.Backend
	manifests map[string]*Manifest
	budget    int
	rec       *trace.Recorder

	stats   ReplayStats
	loaded  map[string]bool
	queued  map[string]bool // models enqueued at least once
	q       *sim.Chan[string]
	done    *sim.Signal
	spent   int
	stopped bool
}

// predictiveQueueCap bounds the model queue; with per-model dedup the
// queue can never hold more distinct work than models exist, so this is a
// generous ceiling rather than a backpressure mechanism.
const predictiveQueueCap = 1024

// StartPredictive spawns the predictive prefetch thread on env and returns
// immediately. manifests maps model identifiers to the load profile to
// replay when that model is predicted (models without a manifest are
// ignored). budget caps the manifest entries the prefetcher may attempt:
// replay only ever pays for objects a prior run provably used, but
// prediction can be wrong, and every entry burned on a bad prediction is a
// wasted load competing with demand traffic for the driver lock. rec may be
// nil.
func StartPredictive(env *sim.Env, rt backend.Backend, manifests map[string]*Manifest, budget int, rec *trace.Recorder) *PredictivePrefetcher {
	pf := &PredictivePrefetcher{
		view:      rt.Attach("predict"),
		manifests: manifests,
		budget:    budget,
		rec:       rec,
		loaded:    make(map[string]bool),
		queued:    make(map[string]bool),
		q:         sim.NewChan[string](env, predictiveQueueCap),
		done:      sim.NewSignal(env),
	}
	env.Spawn("predict-prefetch", pf.run)
	return pf
}

// Prefetch enqueues models for ahead-of-demand loading. Models already
// enqueued once, or without a manifest, are skipped; the call never
// blocks. Calls after Close are ignored.
func (pf *PredictivePrefetcher) Prefetch(models ...string) {
	for _, m := range models {
		if pf.stopped || pf.queued[m] || pf.manifests[m] == nil {
			continue
		}
		if pf.q.Len() >= predictiveQueueCap-1 {
			return // full queue: drop rather than block the caller
		}
		pf.queued[m] = true
		pf.q.Send(nil, m) // never blocks below capacity; no proc needed
	}
}

// run is the prefetch thread body: drain predicted models, replay each
// manifest within budget.
func (pf *PredictivePrefetcher) run(p *sim.Proc) {
	defer pf.done.Fire()
	defer pf.view.Detach()
	for {
		model, ok := pf.q.Recv(p)
		if !ok {
			pf.rec.Instant(Track, "predict-prefetch-done", p.Now())
			return
		}
		for _, e := range pf.manifests[model].Entries {
			if pf.loaded[e.Path] {
				continue // already covered by an earlier prediction
			}
			if pf.view.Loaded(e.Path) {
				// Resident (demand or a peer got there first): free, and
				// covered — the same classification the replay prefetcher
				// gives residents, so the arms account identically.
				pf.stats.Entries++
				pf.stats.Resident++
				pf.loaded[e.Path] = true
				continue
			}
			if pf.spent >= pf.budget {
				pf.rec.Instant(Track, "predict-budget-exhausted", p.Now())
				return // budget gone: nothing further may load
			}
			pf.spent++
			replayEntry(p, pf.view, e, &pf.stats, pf.loaded, pf.rec)
		}
	}
}

// Close stops the prefetcher: no further models are accepted, the queue
// drains, then the thread detaches its view and fires done. Idempotent.
func (pf *PredictivePrefetcher) Close() {
	if pf.stopped {
		return
	}
	pf.stopped = true
	pf.q.Close()
}

// Wait blocks the calling proc until the prefetch thread has exited.
// Callers must Close first or Wait never returns.
func (pf *PredictivePrefetcher) Wait(p *sim.Proc) { pf.done.Wait(p) }

// Done reports whether the prefetch thread has exited.
func (pf *PredictivePrefetcher) Done() bool { return pf.done.Fired() }

// Stats returns a snapshot of the replay counters.
func (pf *PredictivePrefetcher) Stats() ReplayStats { return pf.stats }

// Covered reports whether prediction made (or found) path resident.
func (pf *PredictivePrefetcher) Covered(path string) bool { return pf.loaded[path] }

// Spent returns the budget consumed so far: manifest entries attempted.
func (pf *PredictivePrefetcher) Spent() int { return pf.spent }

// Account reconciles the predictions against the object paths actually
// used, filling Hits/Misses/Wasted and emitting the warmup_prefetch_*
// counters at virtual time at — the same accounting the replay prefetcher
// feeds, so predictive and replay arms land on identical series.
func (pf *PredictivePrefetcher) Account(used []string, at time.Duration) ReplayStats {
	accountUsed(&pf.stats, pf.loaded, used, at, pf.rec)
	return pf.stats
}
