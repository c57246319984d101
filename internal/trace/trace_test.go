package trace

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pask/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

const ms = time.Millisecond

// sampleRecorder builds a small deterministic timeline exercising every
// recording path: spans via both entry points, instants, counters with
// dedup, and registry events.
func sampleRecorder() *Recorder {
	r := New()
	r.ObserveSpan(metrics.Span{
		Cat: metrics.CatParse, Name: "parse:conv1", Thread: "pask-parser",
		Start: 0, End: 2 * ms,
	})
	r.Span("pask-loader", metrics.CatLoad, "load:conv1.hsaco", 1*ms, 4*ms,
		metrics.Attr{Key: "bytes", Value: "1048576"})
	r.Span("gpu", metrics.CatExec, "conv1", 4*ms, 9*ms,
		metrics.Attr{Key: "solution", Value: "ConvAsm1x1U"})
	r.Instant("run", "run-start", 0,
		metrics.Attr{Key: "scheme", Value: "PaSK"},
		metrics.Attr{Key: "model", Value: "res"})
	r.Instant("run", "run-end", 9*ms)
	r.Count("pask_parsed_queue", 0, 0)
	r.Count("pask_parsed_queue", 1*ms, 1)
	r.Count("pask_parsed_queue", 2*ms, 1) // dedup: same value, dropped
	r.Count("pask_parsed_queue", 3*ms, 0)
	r.RegistryEvent("evict", "lib/conv0.hsaco", 5*ms)
	r.RegistrySample("hip_resident_bytes", 5*ms, 2097152)
	return r
}

func TestRecorderAccessors(t *testing.T) {
	r := sampleRecorder()
	if got := len(r.Spans()); got != 3 {
		t.Fatalf("Spans: got %d, want 3", got)
	}
	// Tracks are reported in first-seen order.
	want := []string{"pask-parser", "pask-loader", "gpu", "run", "registry"}
	got := r.tracks
	if len(got) != len(want) {
		t.Fatalf("Tracks: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tracks[%d]: got %q, want %q", i, got[i], want[i])
		}
	}
	// Consecutive duplicate counter values collapse; a registry sample is
	// a counter series.
	samples := map[string][]Sample{}
	for _, name := range r.names {
		samples[name] = r.counters[name].Samples
	}
	if got := samples["pask_parsed_queue"]; len(got) != 3 {
		t.Fatalf("pask_parsed_queue samples: got %d, want 3 (dedup)", len(got))
	}
	if got := samples["hip_resident_bytes"]; len(got) != 1 || got[0] != (Sample{At: 5 * ms, Value: 2097152}) {
		t.Fatalf("hip_resident_bytes samples: got %v", got)
	}
	// A registry event is an instant on the "registry" track.
	if got, want := r.instants[len(r.instants)-1], (Instant{Track: "registry", Name: "evict", At: 5 * ms,
		Attrs: []metrics.Attr{{Key: "path", Value: "lib/conv0.hsaco"}}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("last instant: got %+v, want %+v", got, want)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.ObserveSpan(metrics.Span{Cat: metrics.CatExec, Start: 0, End: ms})
	r.Span("t", metrics.CatExec, "n", 0, ms)
	r.Instant("t", "n", 0)
	r.Count("c", 0, 1)
	r.RegistryEvent("evict", "p", 0)
	r.RegistrySample("s", 0, 1)
	if r.Spans() != nil {
		t.Fatal("nil recorder must report empty state")
	}
}

// TestChromeGolden pins the exporter's byte-exact output: stable track/tid
// assignment, stable event ordering, stable JSON shape. Regenerate with
// go test ./internal/trace -run TestChromeGolden -update.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome export drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestChromeExportValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChrome rejected our own export: %v", err)
	}
	if sum.Spans != 3 {
		t.Fatalf("summary spans: got %d, want 3", sum.Spans)
	}
	if sum.Counters != 2 {
		t.Fatalf("summary counter series: got %d, want 2", sum.Counters)
	}
	if len(sum.Tracks) != 5 {
		t.Fatalf("summary tracks: got %v, want 5 names", sum.Tracks)
	}
	if sum.MaxTs != 9000 { // run-end at 9ms = 9000us
		t.Fatalf("summary MaxTs: got %v, want 9000", sum.MaxTs)
	}
}

func TestValidateChromeRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"invalid json", "{", "invalid JSON"},
		{"empty", `{"traceEvents":[]}`, "no traceEvents"},
		{"unknown ph", `{"traceEvents":[{"name":"t","ph":"Z","ts":0,"pid":1,"tid":1}]}`, "unknown ph"},
		{"missing dur", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t"}},
			{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}`, "missing or negative dur"},
		{"negative dur", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t"}},
			{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`, "missing or negative dur"},
		{"non-monotonic", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t"}},
			{"name":"a","ph":"X","ts":5,"dur":1,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":4,"dur":1,"pid":1,"tid":1}]}`, "before previous"},
		{"no threads", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`, "no thread_name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateChrome([]byte(tc.data))
			if err == nil {
				t.Fatalf("ValidateChrome accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRecorderConcurrency exercises the recorder from many goroutines; run
// with -race to assert the locking holds.
func TestRecorderConcurrency(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			track := []string{"pask-parser", "pask-loader", "pask-issuer", "gpu"}[g%4]
			for i := 0; i < 200; i++ {
				at := time.Duration(i) * time.Microsecond
				r.Span(track, metrics.CatExec, "k", at, at+time.Microsecond)
				r.Count("q", at, float64(i%3))
				r.Instant(track, "tick", at)
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Spans()); got != 8*200 {
		t.Fatalf("spans: got %d, want %d", got, 8*200)
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("concurrent-built trace invalid: %v", err)
	}
}

func TestPrometheusOutput(t *testing.T) {
	r := sampleRecorder()
	// Per-model counter series like breaker_state:res must flatten their
	// colon (reserved for recording rules) to an underscore.
	r.Count("breaker_state:res", 1*ms, 1)
	p := NewPromWriter()
	r.AppendPrometheus(p)
	ReportMetrics(p, &metrics.Report{
		Scheme: "PaSK", Model: "res", Batch: 1,
		Total: 9 * ms, GPUBusy: 5 * ms,
		Loads: 1, LoadedBytes: 1048576,
		ReuseQueries: 46, ReuseHits: 46, SkippedLoads: 46,
	})
	var buf bytes.Buffer
	if err := p.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pask_span_seconds_total counter",
		`pask_span_seconds_total{track="pask-loader",category="load"} 0.003`,
		`pask_spans_total{track="gpu",category="exec"} 1`,
		`pask_events_total{track="registry",name="evict"} 1`,
		"pask_hip_resident_bytes 2097152",
		`pask_run_loads{scheme="PaSK",model="res"} 1`,
		`pask_run_loaded_bytes{scheme="PaSK",model="res"} 1048576`,
		`pask_run_reuse_hits{scheme="PaSK",model="res"} 46`,
		`pask_run_total_seconds{scheme="PaSK",model="res"} 0.009`,
		"pask_breaker_state_res 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q\n---\n%s", want, out)
		}
	}
	// Text-format invariant: every # HELP is immediately followed by # TYPE,
	// and samples for a metric follow its header block.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "# HELP") {
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE") {
				t.Fatalf("HELP line %d not followed by TYPE:\n%s", i, out)
			}
		}
	}
}

func TestPromWriterSortsAndEscapes(t *testing.T) {
	p := NewPromWriter()
	p.Declare("zeta", "gauge", "last")
	p.Sample("zeta", 1)
	p.Declare("alpha", "gauge", "first")
	p.Sample("alpha", 2.5, [2]string{"path", `a"b\c` + "\n"})
	var buf bytes.Buffer
	if err := p.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Fatalf("metrics not sorted by name:\n%s", out)
	}
	if !strings.Contains(out, `alpha{path="a\"b\\c\n"} 2.5`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

// TestPromValueMatchesFmt pins appendPromValue to the fmt verbs it replaced:
// %d of int64(v) when that converts back to v, else %g.
func TestPromValueMatchesFmt(t *testing.T) {
	for _, v := range []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		1 << 53, -(1 << 53), 1<<53 + 2, 1e21, -1e21, 1 << 63, -(1 << 63),
		0.003, 1.5, -2.25, 1e-7, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		want := fmt.Sprintf("%g", v)
		if v == float64(int64(v)) {
			want = fmt.Sprintf("%d", int64(v))
		}
		if got := string(appendPromValue(nil, v)); got != want {
			t.Errorf("appendPromValue(%v) = %q, fmt gives %q", v, got, want)
		}
	}
}

// TestExportWhileRecording exports while other goroutines still record: the
// exporters read the recorder's append-only slices after releasing its lock,
// which -race checks here.
func TestExportWhileRecording(t *testing.T) {
	r := New()
	r.Span("run", metrics.CatExec, "start", 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			track := []string{"pask-parser", "pask-loader", "pask-issuer", "gpu"}[g]
			for i := 0; i < 300; i++ {
				at := time.Duration(i) * time.Microsecond
				r.Span(track, metrics.CatExec, "k", at, at+time.Microsecond, metrics.Attr{Key: "solution", Value: "s"})
				r.Count("q", at, float64(i%3))
				r.Instant(track, "tick", at)
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := r.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateChrome(buf.Bytes()); err != nil {
			t.Fatalf("export during recording invalid: %v", err)
		}
		r.AppendPrometheus(NewPromWriter())
	}
	wg.Wait()
}
