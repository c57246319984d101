package experiments

import (
	"bytes"
	"testing"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/trace"
)

// TestTracedRunAgreesWithReport is the observability acceptance check: a
// traced PaSK cold start of res exports a Chrome trace whose named tracks
// cover the pipeline and whose per-category span totals, recomputed over the
// marked run window, equal Report.Breakdown.
func TestTracedRunAgreesWithReport(t *testing.T) {
	ms, err := PrepareModel("res", 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	wr, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, rec, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := wr.Rep

	// The run window is marked on the "run" track and spans Report.Total.
	t0, ok := rec.FindInstant("run", "run-start")
	if !ok {
		t.Fatal("no run-start instant")
	}
	t1, ok := rec.FindInstant("run", "run-end")
	if !ok {
		t.Fatal("no run-end instant")
	}
	if t1-t0 != rep.Total {
		t.Fatalf("marked window %v != Report.Total %v", t1-t0, rep.Total)
	}

	// Breakdown recomputed from the recorder's spans over the marked window
	// matches the report exactly: the recorder observed the same spans the
	// report's tracer attributed.
	bd := metrics.Breakdown(rec.Spans(), t0, t1, metrics.DefaultPriority())
	for cat, want := range rep.Breakdown {
		if got := bd[cat]; got != want {
			t.Errorf("category %s: trace total %v != report %v", cat, got, want)
		}
	}
	for cat, got := range bd {
		if _, ok := rep.Breakdown[cat]; !ok && got != 0 {
			t.Errorf("category %s: trace has %v, report has none", cat, got)
		}
	}

	// The pipeline's threads appear as named tracks (acceptance: >= 4).
	tracks := map[string]bool{}
	for _, name := range rec.Tracks() {
		tracks[name] = true
	}
	for _, want := range []string{"pask-parser", "pask-loader", "pask-issuer", "gpu"} {
		if !tracks[want] {
			t.Errorf("track %q missing (have %v)", want, rec.Tracks())
		}
	}
	if len(rec.Tracks()) < 4 {
		t.Fatalf("want >= 4 named tracks, got %v", rec.Tracks())
	}

	// Loading happened, so the residency gauge sampled a positive value.
	if v, ok := rec.CounterLast("hip_resident_bytes"); !ok || v <= 0 {
		t.Errorf("hip_resident_bytes: got %v, %v; want positive sample", v, ok)
	}
	if _, ok := rec.CounterLast("pask_cache_size"); !ok {
		t.Error("pask_cache_size counter never sampled")
	}

	// The exported Chrome file passes its own validator.
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := trace.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if len(sum.Tracks) < 4 {
		t.Fatalf("exported trace has %d named tracks, want >= 4", len(sum.Tracks))
	}
}

// TestUntracedRunsUnchanged pins that attaching a recorder does not perturb
// the simulation: the traced and untraced runs report identical numbers.
func TestUntracedRunsUnchanged(t *testing.T) {
	ms, err := PrepareModel("alex", 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := ms.RunScheme(core.SchemePaSK, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, trace.New(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	traced := wr.Rep
	if plain.Total != traced.Total || plain.Loads != traced.Loads ||
		plain.ReuseHits != traced.ReuseHits || plain.GPUBusy != traced.GPUBusy {
		t.Fatalf("tracing perturbed the run: %+v vs %+v", plain, traced)
	}
}
