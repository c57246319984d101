package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"

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
	var t0, t1 time.Duration
	var marks []string
	last := map[string]float64{} // counter series' final values
	for _, ev := range chromeEvents(t, rec) {
		switch {
		case ev.Ph == "i" && ev.Track == "run" && (ev.Name == "run-start" || ev.Name == "run-end"):
			marks = append(marks, ev.Name)
			t0, t1 = t1, ev.At
		case ev.Ph == "C":
			last[ev.Name] = ev.Value
		}
	}
	if !slices.Equal(marks, []string{"run-start", "run-end"}) {
		t.Fatalf("run track marks %v, want [run-start run-end]", marks)
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

	// Loading happened, so the residency gauge sampled a positive value.
	if v, ok := last["hip_resident_bytes"]; !ok || v <= 0 {
		t.Errorf("hip_resident_bytes: got %v, %v; want positive sample", v, ok)
	}
	if _, ok := last["pask_cache_size"]; !ok {
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
	// The pipeline's threads appear as named tracks (acceptance: >= 4).
	for _, want := range []string{"pask-parser", "pask-loader", "pask-issuer", "gpu"} {
		if !slices.Contains(sum.Tracks, want) {
			t.Errorf("track %q missing (have %v)", want, sum.Tracks)
		}
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

// chromeEvent is one span, instant or counter sample of a recorder's
// Chrome export, on its named track, with its times in nanoseconds.
type chromeEvent struct {
	Track, Name, Ph string
	At, End         time.Duration
	Value           float64 // a counter sample's value
}

// chromeEvents exports rec and decodes the events, so tests read a trace
// the way its consumers do.
func chromeEvents(t *testing.T, rec *trace.Recorder) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
			Tid      int
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	ns := func(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
	tracks := map[int]string{}
	var out []chromeEvent
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				tracks[ev.Tid], _ = ev.Args["name"].(string)
			}
			continue
		}
		value, _ := ev.Args["value"].(float64)
		out = append(out, chromeEvent{Track: tracks[ev.Tid], Name: ev.Name, Ph: ev.Ph,
			At: ns(ev.Ts), End: ns(ev.Ts) + ns(ev.Dur), Value: value})
	}
	return out
}
