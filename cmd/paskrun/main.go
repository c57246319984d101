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
// The run goes through the same path as pask.RunScheme and POST
// /v1/coldstart, so it reports the same numbers. -blas-scope extends the
// loading management of PaSK and PaSK-I to the BLAS library; the other
// schemes ignore it.
//
// With -faults the run faces a seeded fault plan in the faults package's
// grammar (a key outside it is an error) and the report gains the retry,
// negative-cache and degradation-ladder counters.
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
	"io"
	"os"
	"slices"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/metrics"
	"pask/internal/trace"
	"pask/internal/warmup"
)

func main() {
	model := flag.String("model", "res", "zoo model abbreviation")
	schemeName := flag.String("scheme", "PaSK", "scheme: Baseline, NNV12, Ideal, PaSK, PaSK-I, PaSK-R")
	devName := flag.String("device", "MI100", "device profile: MI100, A100, 6900XT")
	batch := flag.Int("batch", 1, "inference batch size")
	width := flag.Int("width", 100, "timeline width in characters")
	blasScope := flag.Bool("blas-scope", false, "enable the BLAS-scope extension (PaSK and PaSK-I only)")
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

	var inj *faults.Injector
	if *faultsFlag != "" {
		plan, perr := faults.ParsePlan(*faultsFlag)
		if perr != nil {
			fatal(perr)
		}
		inj = faults.New(plan)
	}

	// Run on a process we hold, so faults reach it and its stats stay
	// readable after the run. The recorder keeps the spans the timeline
	// draws, whether or not -trace writes them out.
	pr := ms.NewProcess()
	pr.InjectFaults(inj)
	rec := trace.New()
	// Warmup: a missing, corrupt or empty manifest starts cold, never fails.
	var man *warmup.Manifest
	if *warmupPath != "" {
		if m, merr := warmup.ReadFile(*warmupPath); merr == nil && len(m.Entries) > 0 {
			man = m
		}
	}
	scheme := core.Scheme(*schemeName)
	wr, err := ms.RunSchemeOn(pr, scheme, core.Options{BlasScope: *blasScope}, rec, man, *recordPath != "")
	if err != nil {
		fatal(err)
	}
	rep, res := wr.Rep, wr.Res

	fmt.Printf("%s x %s on %s (batch %d)\n\n", *model, scheme, prof.Name, *batch)
	fmt.Printf("cold start      %10.2fms\n", float64(rep.Total)/1e6)
	fmt.Printf("GPU utilization %9.1f%%\n", 100*rep.Utilization())
	fmt.Printf("code objects    %10d loaded (%0.1f MB)\n", rep.Loads, float64(rep.LoadedBytes)/1e6)
	if res != nil {
		fmt.Printf("reuse           %10d queries, %d hits (%.0f%%), %d loads skipped, milestone %d\n",
			rep.ReuseQueries, rep.ReuseHits, 100*rep.HitRate(), rep.SkippedLoads, rep.Milestone)
	}

	fmt.Printf("\nbreakdown:\n")
	writeBreakdown(os.Stdout, rep.Breakdown, rep.Total)

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

	if man != nil {
		st := wr.Replay
		fmt.Printf("\nwarmup replay:   %d/%d prefetched (%d coalesced), %d hits, %d misses, %d wasted, %d stale\n",
			st.Loaded+st.Coalesced, st.Entries, st.Coalesced, st.Hits, st.Misses, st.Wasted, st.Stale)
	}
	if *recordPath != "" {
		if werr := warmup.WriteFile(*recordPath, wr.Profile); werr != nil {
			fatal(werr)
		}
		fmt.Printf("\nload profile (%d objects, %d substitutions) written to %s\n",
			len(wr.Profile.Entries), len(wr.Profile.Substitutions), *recordPath)
	}

	// The timeline draws the spans of the process's tracer, not those the
	// warmup prefetcher writes to its own track.
	spans := slices.DeleteFunc(rec.Spans(), func(s metrics.Span) bool { return s.Thread == warmup.Track })
	fmt.Printf("\ntimeline:\n%s", metrics.Timeline(spans, wr.TTFI-rep.Total, wr.TTFI, *width))

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paskrun:", err)
	os.Exit(1)
}

// writeBreakdown prints the time breakdown longest first. Equal durations
// keep metrics.DefaultPriority order (CatOther last), so a run prints the
// same way every time.
func writeBreakdown(w io.Writer, bd map[metrics.Category]time.Duration, total time.Duration) {
	var cats []metrics.Category
	for _, c := range append(metrics.DefaultPriority(), metrics.CatOther) {
		if _, ok := bd[c]; ok {
			cats = append(cats, c)
		}
	}
	slices.SortStableFunc(cats, func(a, b metrics.Category) int { return cmp.Compare(bd[b], bd[a]) })
	for _, c := range cats {
		v := float64(bd[c])
		fmt.Fprintf(w, "  %-9s %8.2fms  %5.1f%%\n", c, v/1e6, 100*v/float64(total))
	}
}
