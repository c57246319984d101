// Command paskrun executes one model under one scheme on a simulated device
// and prints the run's report, phase breakdown and an ASCII timeline showing
// how PASK overlaps parsing, loading and execution.
//
// Usage:
//
//	paskrun -model res -scheme PaSK [-device MI100] [-batch 1] [-width 100]
//	        [-faults "transient=0.1,permanent=0.02,seed=7"] [-trace out.json]
//	        [-record-profile res.profile.json] [-warmup res.profile.json]
//
// With -faults the run faces a seeded fault plan (keys: transient, permanent,
// spike, disable, seed, burst, spike_ms, reset_ms) and the report gains the
// retry, negative-cache and degradation-ladder counters.
//
// With -record-profile the run's observed load order is written as a versioned
// warmup manifest; -warmup replays such a manifest through a prefetcher that
// overlaps context init. A missing, corrupt or stale manifest never fails the
// run — it degrades to a plain cold start.
//
// With -trace the run's full timeline — per-thread spans, counter series,
// registry events — is written as Chrome trace_event JSON, loadable in
// chrome://tracing and ui.perfetto.dev.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/metrics"
	"pask/internal/serving"
	"pask/internal/sim"
	"pask/internal/trace"
	"pask/internal/warmup"
)

func main() {
	model := flag.String("model", "res", "zoo model abbreviation")
	schemeName := flag.String("scheme", "PaSK", "scheme: Baseline, NNV12, Ideal, PaSK, PaSK-I, PaSK-R")
	devName := flag.String("device", "MI100", "device profile: MI100, A100, 6900XT")
	batch := flag.Int("batch", 1, "inference batch size")
	width := flag.Int("width", 100, "timeline width in characters")
	blasScope := flag.Bool("blas-scope", false, "enable the BLAS-scope extension")
	faultsFlag := flag.String("faults", "", "fault plan, e.g. \"transient=0.1,permanent=0.02,seed=7\"")
	traceOut := flag.String("trace", "", "write the run's Chrome trace_event JSON to this file")
	recordPath := flag.String("record-profile", "", "write the run's observed load profile as a warmup manifest")
	warmupPath := flag.String("warmup", "", "replay a recorded warmup manifest before the run (corrupt/stale manifests are ignored)")
	flag.Parse()

	prof, ok := device.ProfileByName(*devName)
	if !ok {
		fatal(fmt.Errorf("unknown device %q", *devName))
	}
	ms, err := experiments.PrepareModel(*model, *batch, prof)
	if err != nil {
		fatal(err)
	}

	scheme := core.Scheme(*schemeName)
	found := false
	for _, s := range core.Schemes() {
		if s == scheme {
			found = true
		}
	}
	if !found {
		fatal(fmt.Errorf("unknown scheme %q (one of %v)", *schemeName, core.Schemes()))
	}

	var inj *faults.Injector
	if *faultsFlag != "" {
		plan, leftover, perr := faults.ParsePlan(*faultsFlag)
		if perr != nil {
			fatal(perr)
		}
		if len(leftover) > 0 {
			fatal(fmt.Errorf("unknown fault keys in -faults: %v", leftover))
		}
		inj = faults.New(plan)
		restore := serving.InstallFaults(ms, inj)
		defer restore()
	}

	// Run with a retained process so the tracer's spans are available.
	pr := ms.NewProcess()
	if inj != nil {
		pr.RT.SetLoadFaults(inj)
		inj.ArmReset(pr.Env, pr.RT.UnloadAll)
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New()
		pr.Record(rec)
	}
	// Warmup: replay a recorded manifest concurrently with context init, and
	// observe this run's own load order when recording or accounting replay.
	var wrec *warmup.Recorder
	if *recordPath != "" || *warmupPath != "" {
		wrec = warmup.NewRecorder()
	}
	var pf *warmup.Prefetcher
	if *warmupPath != "" {
		// Missing or corrupt manifest: start cold, never fail.
		if man, merr := warmup.ReadFile(*warmupPath); merr == nil && len(man.Entries) > 0 {
			pf = warmup.Start(pr.Env, pr.RT, man, rec)
		}
	}
	opts := core.Options{BlasScope: *blasScope}
	if wrec != nil {
		opts.Profile = wrec
	}
	var spans []metrics.Span
	var window [2]time.Duration
	rep, res, err := runWithSpans(ms, pr, scheme, opts, rec, &spans, &window)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s x %s on %s (batch %d)\n\n", *model, scheme, prof.Name, *batch)
	fmt.Printf("cold start      %10.2fms\n", float64(rep.Total)/1e6)
	fmt.Printf("GPU utilization %9.1f%%\n", 100*rep.Utilization())
	fmt.Printf("code objects    %10d loaded (%0.1f MB)\n", rep.Loads, float64(rep.LoadedBytes)/1e6)
	if res != nil {
		fmt.Printf("reuse           %10d queries, %d hits (%.0f%%), %d loads skipped, milestone %d\n",
			res.Cache.Queries, res.Cache.Hits, 100*hitRate(res), res.SkippedLoads, res.Milestone)
	}

	fmt.Printf("\nbreakdown:\n")
	type kv struct {
		c metrics.Category
		v float64
	}
	var items []kv
	for c, v := range rep.Breakdown {
		items = append(items, kv{c, float64(v)})
	}
	slices.SortFunc(items, func(a, b kv) int { return cmp.Compare(b.v, a.v) })
	for _, it := range items {
		fmt.Printf("  %-9s %8.2fms  %5.1f%%\n", it.c, it.v/1e6, 100*it.v/float64(rep.Total))
	}

	if inj != nil {
		fs := inj.Stats()
		hs := pr.RT.Stats()
		fmt.Printf("\nfaults injected: %d transient, %d corrupt reads, %d spikes, %d resets\n",
			fs.TransientFaults, fs.CorruptReads, fs.LatencySpikes, fs.Resets)
		fmt.Printf("recovery:        %d load retries, %d permanent failures, %d negative-cache hits\n",
			hs.TransientRetries, hs.PermanentFailures, hs.NegativeHits)
		if res != nil {
			fmt.Printf("degradation:     %d load failures, %d forced reuse, %d ladder fallbacks, %d elided transforms\n",
				res.LoadFailures, res.ForcedReuse, res.LadderFallbacks, res.ElidedXformFailures)
		}
	}

	if pf != nil {
		st := pf.Account(wrec.Paths(), pr.Env.Now())
		fmt.Printf("\nwarmup replay:   %d/%d prefetched (%d coalesced), %d hits, %d misses, %d wasted, %d stale\n",
			st.Loaded+st.Coalesced, st.Entries, st.Coalesced, st.Hits, st.Misses, st.Wasted, st.Stale)
	}
	if *recordPath != "" {
		man := wrec.Manifest(ms.Store, ms.Spec.Abbr, *batch, prof)
		if werr := warmup.WriteFile(*recordPath, man); werr != nil {
			fatal(werr)
		}
		fmt.Printf("\nload profile (%d objects, %d substitutions) written to %s\n",
			len(man.Entries), len(man.Substitutions), *recordPath)
	}

	fmt.Printf("\ntimeline:\n%s", metrics.Timeline(spans, window[0], window[1], *width))

	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fatal(ferr)
		}
		if werr := rec.WriteChrome(f); werr != nil {
			f.Close()
			fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			fatal(cerr)
		}
		fmt.Printf("\ntrace written to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
}

func hitRate(res *core.Result) float64 {
	if res.Cache.Queries == 0 {
		return 0
	}
	return float64(res.Cache.Hits) / float64(res.Cache.Queries)
}

func runWithSpans(ms *experiments.ModelSetup, pr *experiments.Process, scheme core.Scheme, opts core.Options, rec *trace.Recorder, spans *[]metrics.Span, window *[2]time.Duration) (*metrics.Report, *core.Result, error) {
	rep := &metrics.Report{}
	var res *core.Result
	var runErr error
	pr.Env.Spawn("main", func(p *sim.Proc) {
		defer pr.GPU.CloseAll()
		pr.Runner.RT.InitContext(p)
		if runErr = pr.Runner.Lib.LoadResidents(p); runErr != nil {
			return
		}
		model := ms.Model
		if scheme == core.SchemeNNV12 {
			model = ms.Uniform
		}
		if scheme == core.SchemeIdeal {
			if runErr = pr.Runner.PreloadAll(p, model); runErr != nil {
				return
			}
		}
		busy0 := pr.GPU.BusyTime()
		loads0 := pr.RT.Stats()
		t0 := p.Now()
		rec.Instant("run", "run-start", t0,
			metrics.Attr{Key: "scheme", Value: string(scheme)},
			metrics.Attr{Key: "model", Value: ms.Spec.Abbr})
		switch scheme {
		case core.SchemeBaseline:
			runErr = pr.Runner.RunBaseline(p, model)
		case core.SchemeIdeal, core.SchemeNNV12, core.SchemePaSKI:
			_, runErr = core.RunInterleaved(p, pr.Runner, model, core.NewCategoricalCache(), false, opts)
		case core.SchemePaSKR:
			c := core.NewNaiveCache()
			core.SeedResidents(c, pr.Runner.Lib)
			res, runErr = core.RunSequentialReuse(p, pr.Runner, model, c, core.Options{})
		default:
			c := core.NewCategoricalCache()
			core.SeedResidents(c, pr.Runner.Lib)
			res, runErr = core.RunInterleaved(p, pr.Runner, model, c, true, opts)
		}
		t1 := p.Now()
		rec.Instant("run", "run-end", t1)
		rep.Total = t1 - t0
		rep.GPUBusy = pr.GPU.BusyTime() - busy0
		rep.Loads = pr.RT.Stats().ModuleLoads - loads0.ModuleLoads
		rep.LoadedBytes = pr.RT.Stats().BytesLoaded - loads0.BytesLoaded
		rep.Breakdown = metrics.Breakdown(pr.Tracer.Spans(), t0, t1, metrics.DefaultPriority())
		*spans = pr.Tracer.Spans()
		window[0], window[1] = t0, t1
	})
	if err := pr.Env.Run(); err != nil {
		return nil, nil, err
	}
	return rep, res, runErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paskrun:", err)
	os.Exit(1)
}
