package warmup

import (
	"math"
	"time"

	"pask/internal/backend"
	"pask/internal/metrics"
	"pask/internal/sim"
	"pask/internal/trace"
)

// ReplayStats summarizes one manifest replay plus its post-run accounting.
// The replay-side fields (Entries..Failed) are final once the prefetcher's
// thread exits; the accounting fields (Hits/Misses/Wasted) are filled by
// Account once the run knows which objects it actually used.
type ReplayStats struct {
	Entries   int `json:"entries"`   // manifest entries considered
	Loaded    int `json:"loaded"`    // loads this replay initiated and paid for
	Resident  int `json:"resident"`  // already resident when replay reached them
	Coalesced int `json:"coalesced"` // converged with an in-flight demand load
	Stale     int `json:"stale"`     // checksum mismatch or unreadable: skipped
	Failed    int `json:"failed"`    // load errors absorbed (never fail the run)

	Hits   int `json:"hits"`   // objects the run used that replay made resident
	Misses int `json:"misses"` // objects the run used that replay did not cover
	Wasted int `json:"wasted"` // objects replay loaded that the run never used
}

// Prefetcher loads recorded load profiles through a shared backend runtime
// on its own simulation thread, concurrently with (and ideally ahead of)
// demand. Start replays one manifest for the instance that spawned it;
// StartPredictive is fed model names over time by whatever watches the live
// request stream and replays each named model's manifest within an entry
// budget, so residency prefetched for a predicted model is immediately warm
// for the tenant that eventually serves it. Either way the thread attaches
// its own refcounted "warmup" view, so its loads are attributed to it in
// per-tenant stats, and detaches when it exits, so it holds no pins of its
// own — objects the run never touches stay evictable.
//
// Every failure mode is absorbed: stale entries are skipped and counted,
// load errors are counted, and a fully corrupt manifest simply never
// constructs a Prefetcher. Warmup can only ever add residency.
type Prefetcher struct {
	view      *backend.Registry
	manifests map[string]*Manifest // StartPredictive: model -> load profile
	budget    int
	rec       *trace.Recorder

	stats  ReplayStats
	loaded map[string]bool // paths resident because of (or confirmed by) the prefetcher
	queued map[string]bool // models enqueued at least once
	q      *sim.Chan[*Manifest]
	done   *sim.Signal
	spent  int
}

// Track is the trace track prefetch spans and instants appear on.
const Track = "warmup"

// queueCap bounds the manifest queue; with per-model dedup the queue can
// never hold more distinct work than models exist, so this is a generous
// ceiling rather than a backpressure mechanism.
const queueCap = 1024

// Start spawns a thread on env that replays man in recorded order and
// returns immediately: the thread attaches its own view of rt, walks the
// manifest and fires its done signal when finished. rec may be nil.
func Start(env *sim.Env, rt *backend.Registry, man *Manifest, rec *trace.Recorder) *Prefetcher {
	pf := StartPredictive(env, rt, nil, math.MaxInt, rec)
	pf.q.Send(nil, man)
	pf.Close()
	return pf
}

// StartPredictive spawns the prefetch thread on env and returns
// immediately; Prefetch feeds it models. manifests maps model identifiers
// to the load profile to replay when that model is predicted (models
// without a manifest are ignored). budget caps the manifest entries the
// prefetcher may attempt: replay only ever pays for objects a prior run
// provably used, but prediction can be wrong, and every entry burned on a
// bad prediction is a wasted load competing with demand traffic for the
// driver lock. rec may be nil.
func StartPredictive(env *sim.Env, rt *backend.Registry, manifests map[string]*Manifest, budget int, rec *trace.Recorder) *Prefetcher {
	pf := &Prefetcher{
		view:      rt.Attach("warmup"),
		manifests: manifests,
		budget:    budget,
		rec:       rec,
		loaded:    make(map[string]bool),
		queued:    make(map[string]bool),
		q:         sim.NewChan[*Manifest](env, queueCap),
		done:      sim.NewSignal(env),
	}
	env.Spawn("warmup-prefetch", pf.run)
	return pf
}

// Prefetch enqueues models for ahead-of-demand loading. Models already
// enqueued once, or without a manifest, are skipped; the call never
// blocks. Calls after Close are ignored.
func (pf *Prefetcher) Prefetch(models ...string) {
	for _, m := range models {
		if pf.q.Closed() || pf.queued[m] || pf.manifests[m] == nil {
			continue
		}
		if pf.q.Len() >= queueCap-1 {
			return // full queue: drop rather than block the caller
		}
		pf.queued[m] = true
		pf.q.Send(nil, pf.manifests[m]) // never blocks below capacity; no proc needed
	}
}

// Close stops the prefetcher: no further models are accepted, the queue
// drains, then the thread detaches its view and fires done. Idempotent.
func (pf *Prefetcher) Close() { pf.q.Close() }

// run is the prefetch thread body: drain queued manifests, walking each in
// recorded order until the budget is spent.
func (pf *Prefetcher) run(p *sim.Proc) {
	defer pf.done.Fire()
	defer pf.view.Detach()
	for {
		man, ok := pf.q.Recv(p)
		if !ok {
			pf.rec.Instant(Track, "prefetch-done", p.Now())
			return
		}
		for _, e := range man.Entries {
			if !pf.fetch(p, e) {
				pf.rec.Instant(Track, "prefetch-budget-exhausted", p.Now())
				return // budget gone: nothing further may load
			}
		}
	}
}

// fetch handles one manifest entry, classifying the outcome into the stats
// and marking paths that became (or were confirmed) resident. A path
// already covered is skipped; a resident object whose checksum still
// matches is free; every other entry is an attempt that costs one unit of
// budget — a stale one is counted and skipped, the rest load. fetch reports
// false when the budget is spent and the thread must stop.
func (pf *Prefetcher) fetch(p *sim.Proc, e Entry) bool {
	if pf.loaded[e.Path] {
		return true
	}
	data, err := pf.view.ReadObject(e.Path)
	stale := err != nil || Checksum(data) != e.Checksum
	if !stale && pf.view.Loaded(e.Path) {
		pf.stats.Entries++
		pf.stats.Resident++
		pf.loaded[e.Path] = true
		return true
	}
	if pf.spent >= pf.budget {
		return false
	}
	pf.spent++
	pf.stats.Entries++
	if stale {
		pf.stats.Stale++
		pf.rec.Instant(Track, "prefetch-stale", p.Now(), metrics.Attr{Key: "path", Value: e.Path})
		pf.rec.Count("warmup_stale_entries", p.Now(), float64(pf.stats.Stale))
		return true
	}
	start := p.Now()
	before := pf.view.TenantStats()
	_, err = pf.view.ModuleLoad(p, e.Path)
	after := pf.view.TenantStats()
	if err != nil {
		pf.stats.Failed++
		pf.rec.Instant(Track, "prefetch-failed", p.Now(), metrics.Attr{Key: "path", Value: e.Path})
		return true
	}
	pf.loaded[e.Path] = true
	switch {
	case after.Loads > before.Loads:
		pf.stats.Loaded++
	case after.CoalescedWaits > before.CoalescedWaits:
		pf.stats.Coalesced++
	default: // became resident between the Loaded check and the call
		pf.stats.Resident++
	}
	pf.rec.Span(Track, metrics.CatLoad, "prefetch:"+e.Path, start, p.Now())
	return true
}

// Wait blocks the calling proc until the prefetch thread has exited. A
// StartPredictive caller must Close first or Wait never returns (unless
// the budget runs out).
func (pf *Prefetcher) Wait(p *sim.Proc) { pf.done.Wait(p) }

// Stats returns a snapshot of the prefetch counters.
func (pf *Prefetcher) Stats() ReplayStats { return pf.stats }

// Account reconciles the prefetch against the set of object paths the run
// actually used, filling Hits/Misses/Wasted, emitting the warmup_prefetch_*
// counter series at virtual time at (even when zero, so dashboards always
// see them) and returning the completed stats.
func (pf *Prefetcher) Account(used []string, at time.Duration) ReplayStats {
	st := &pf.stats
	usedSet := make(map[string]bool, len(used))
	for _, path := range used {
		if usedSet[path] {
			continue
		}
		usedSet[path] = true
		if pf.loaded[path] {
			st.Hits++
		} else {
			st.Misses++
		}
	}
	for path := range pf.loaded {
		if !usedSet[path] {
			st.Wasted++
		}
	}
	pf.rec.Count("warmup_prefetch_hits", at, float64(st.Hits))
	pf.rec.Count("warmup_prefetch_misses", at, float64(st.Misses))
	pf.rec.Count("warmup_prefetch_wasted", at, float64(st.Wasted))
	pf.rec.Count("warmup_stale_entries", at, float64(st.Stale))
	return *st
}
