package experiments

import (
	"fmt"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/sim"
	"pask/internal/trace"
	"pask/internal/warmup"
)

// WarmupRun is one scheme execution with the profile-warmup machinery
// attached: the usual report and result plus the recorded profile (when
// recording) and the replay accounting (when a manifest was replayed).
type WarmupRun struct {
	Rep *metrics.Report
	Res *core.Result
	// TTFI is the time-to-first-inference measured from process start:
	// GPU context creation, library open and the full run, i.e. what a
	// serving user waits for on a cold instance. Report.Total, by
	// contrast, excludes process initialization (§V methodology).
	TTFI time.Duration
	// Profile is the load profile recorded from this run (nil unless
	// recording was requested).
	Profile *warmup.Manifest
	// Replay is the prefetcher's accounting (zero unless a manifest was
	// replayed).
	Replay warmup.ReplayStats
}

// RunSchemeOn executes the model once under scheme on pr, a cold process
// the caller created (usually ms.NewProcess()), so it can wire faults into
// the runtime first and read its runtime stats afterwards. The report's
// breakdown comes from the busy time pr's tracer keeps; the spans
// themselves reach only rec. rec,
// when non-nil, records the whole process (spans, registry events,
// counters); the timed window is marked with "run-start"/"run-end" instants
// on the "run" track, so consumers recover exactly the interval
// Report.Breakdown covers. When man is non-nil a prefetcher thread spawns at
// process start — its loads overlap GPU context creation and the parse, so
// the pipeline finds modules resident; singleflight coalescing in the
// runtime makes replay and demand loads converge. A stale or partial
// manifest degrades the run to (at worst) a plain cold start; it never
// fails it. When record is true (or a manifest is replayed, which needs the
// used-object set for accounting) the run's realized decisions are captured
// through core's ProfileObserver seam.
func (ms *ModelSetup) RunSchemeOn(pr *Process, scheme core.Scheme, opts core.Options, rec *trace.Recorder, man *warmup.Manifest, record bool) (*WarmupRun, error) {
	pr.Record(rec)
	rep := &metrics.Report{Scheme: string(scheme), Model: ms.Spec.Abbr, Batch: ms.Batch}
	wr := &WarmupRun{Rep: rep}
	var res *core.Result

	var wrec *warmup.Recorder
	if record || man != nil {
		wrec = warmup.NewRecorder()
		opts.Profile = wrec
	}
	var pf *warmup.Prefetcher
	if man != nil && len(man.Entries) > 0 {
		// Spawned before "main": replay begins at t=0 and overlaps context
		// init (the per-GPU daemon starts loading the moment the model is
		// placed, not when the framework finishes booting).
		pf = warmup.Start(pr.Env, pr.RT, man, rec)
	}

	err := pr.Main(func(p *sim.Proc) error {
		model, err := ms.SchemeModel(p, pr, scheme)
		if err != nil {
			return err
		}
		loads0 := pr.RT.Stats()
		busy0 := pr.GPU.BusyTime()
		t0 := p.Now()
		if rec != nil {
			rec.Instant("run", "run-start", t0,
				metrics.Attr{Key: "scheme", Value: string(scheme)},
				metrics.Attr{Key: "model", Value: ms.Spec.Abbr},
				metrics.Attr{Key: "batch", Value: fmt.Sprint(ms.Batch)})
		}
		res, err = core.Run(p, pr.Runner, model, scheme, core.NewCache(scheme, pr.Lib), opts)

		t1 := p.Now()
		rec.Instant("run", "run-end", t1)
		wr.TTFI = t1
		rep.Total = t1 - t0
		rep.GPUBusy = pr.GPU.BusyTime() - busy0
		st := pr.RT.Stats()
		rep.Loads = st.ModuleLoads - loads0.ModuleLoads
		rep.LoadedBytes = st.BytesLoaded - loads0.BytesLoaded
		rep.Breakdown = pr.Tracer.Breakdown(t0, t1, metrics.DefaultPriority())
		if res != nil {
			rep.ReuseQueries = res.Cache.Queries
			rep.ReuseHits = res.Cache.Hits
			rep.Lookups = res.Cache.Lookups
			rep.Milestone = res.Milestone
			rep.SkippedLoads = res.SkippedLoads
			rep.PressureReuse = res.PressureReuse
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", ms.Spec.Abbr, scheme, err)
	}
	wr.Res = res
	if record {
		wr.Profile = wrec.Manifest(ms.Store, ms.Spec.Abbr, ms.Batch, ms.Profile)
	}
	if pf != nil {
		wr.Replay = pf.Account(wrec.Paths(), pr.Env.Now())
		rep.WarmupEntries = wr.Replay.Entries
		rep.WarmupPrefetched = wr.Replay.Loaded + wr.Replay.Coalesced
		rep.WarmupHits = wr.Replay.Hits
		rep.WarmupMisses = wr.Replay.Misses
		rep.WarmupWasted = wr.Replay.Wasted
		rep.WarmupStale = wr.Replay.Stale
	}
	return wr, nil
}

// WarmupDeviceResult is one device's row of the warmup experiment.
type WarmupDeviceResult struct {
	Device string `json:"device"`
	// Time-to-first-inference per arm, milliseconds of virtual time.
	ColdMs     float64 `json:"cold_ms"`
	RecordedMs float64 `json:"recorded_ms"`
	WarmedMs   float64 `json:"warmed_ms"`
	// Speedup is cold/warmed TTFI.
	Speedup        float64            `json:"speedup"`
	ProfileEntries int                `json:"profile_entries"`
	Prefetch       warmup.ReplayStats `json:"prefetch"`
}

// WarmupBench is the machine-readable result the warmup experiment emits
// as BENCH_warmup.json — the repo's recorded perf trajectory for cold-start
// mitigation.
type WarmupBench struct {
	Experiment string               `json:"experiment"`
	Model      string               `json:"model"`
	Batch      int                  `json:"batch"`
	Devices    []WarmupDeviceResult `json:"devices"`
}

// WarmupExperiment compares three arms of a PaSK cold start on every device
// profile: cold (no profile), recorded (cold plus profile recording — the
// observer is host-side and free in virtual time, so this arm documents
// that recording costs nothing) and warmed (replaying the just-recorded
// profile in a fresh process). rec, when non-nil, captures the first
// device's warmed arm as a trace.
func WarmupExperiment(model string, batch int, rec *trace.Recorder) (*Table, *WarmupBench, error) {
	tbl := &Table{ID: "Warmup",
		Title:   fmt.Sprintf("Profile-guided warmup: PaSK time-to-first-inference, %s (batch %d)", model, batch),
		Headers: []string{"device", "cold", "recorded", "warmed", "speedup", "prefetched", "hits", "stale"}}
	bench := &WarmupBench{Experiment: "warmup", Model: model, Batch: batch}

	for i, prof := range device.Profiles() {
		ms, err := PrepareModel(model, batch, prof)
		if err != nil {
			return nil, nil, err
		}
		cold, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, false)
		if err != nil {
			return nil, nil, fmt.Errorf("warmup cold arm on %s: %w", prof.Name, err)
		}
		recorded, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, true)
		if err != nil {
			return nil, nil, fmt.Errorf("warmup recorded arm on %s: %w", prof.Name, err)
		}
		var armRec *trace.Recorder
		if i == 0 {
			armRec = rec
		}
		warmed, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, armRec, recorded.Profile, false)
		if err != nil {
			return nil, nil, fmt.Errorf("warmup warmed arm on %s: %w", prof.Name, err)
		}

		dr := WarmupDeviceResult{
			Device:         prof.Name,
			ColdMs:         float64(cold.TTFI) / 1e6,
			RecordedMs:     float64(recorded.TTFI) / 1e6,
			WarmedMs:       float64(warmed.TTFI) / 1e6,
			ProfileEntries: len(recorded.Profile.Entries),
			Prefetch:       warmed.Replay,
		}
		if warmed.TTFI > 0 {
			dr.Speedup = float64(cold.TTFI) / float64(warmed.TTFI)
		}
		bench.Devices = append(bench.Devices, dr)
		tbl.Rows = append(tbl.Rows, []string{
			prof.Name,
			fmt.Sprintf("%.2fms", dr.ColdMs),
			fmt.Sprintf("%.2fms", dr.RecordedMs),
			fmt.Sprintf("%.2fms", dr.WarmedMs),
			fmt.Sprintf("%.2fx", dr.Speedup),
			fmt.Sprintf("%d/%d", dr.Prefetch.Loaded+dr.Prefetch.Coalesced, dr.Prefetch.Entries),
			fmt.Sprintf("%d", dr.Prefetch.Hits),
			fmt.Sprintf("%d", dr.Prefetch.Stale),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"times are time-to-first-inference from process start (context init + library open + run)",
		"recording is host-side and free in virtual time, so the recorded arm matches the cold arm",
		"the warmed arm replays the recorded manifest concurrently with context init")
	return tbl, bench, nil
}
