package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/trace"
)

// tinyConfig is each workload at a size that runs in well under a second.
func tinyConfig(name string) config {
	cfg := config{seed: 1, goldenDir: filepath.Join("..", "golden")}
	switch name {
	case "sweep":
		cfg.experiments = []string{"fig4", "coldstart"}
	case "coldstart":
		cfg.models, cfg.devices = []string{"alex"}, []string{"MI100"}
	case "fleet":
		cfg.models, cfg.arrivals = []string{"alex"}, 100
	case "http":
		cfg.models, cfg.rates = []string{"alex"}, []float64{50, 100, 200}
	}
	return cfg
}

// withOwnGolden copies the committed goldens into a temporary directory and
// switches cfg to recording its own workload there, for sizes whose digests
// the committed files do not hold.
func withOwnGolden(t *testing.T, cfg config) config {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join(cfg.goldenDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg.goldenDir, cfg.update = dir, true
	return cfg
}

// tinyRun runs one workload for 0.3 s and returns its detail metrics, its
// result and, for a traced run, its Chrome trace.
func tinyRun(t *testing.T, name string, cfg config, traced bool) (map[string]metric, result, []byte) {
	t.Helper()
	dir := t.TempDir()
	o := runOptions{seconds: 0.3, traced: traced,
		traceOut: filepath.Join(dir, "trace.json"), cpuOut: filepath.Join(dir, "cpu.pprof")}
	detail, res, err := run(name, cfg, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: result %+v", name, res)
	}
	var chrome []byte
	if traced {
		if chrome, err = os.ReadFile(o.traceOut); err != nil {
			t.Fatal(err)
		}
	}
	return detail, res, chrome
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	e2e := map[string]string{}
	for _, e := range e2eUnits {
		e2e[e.name] = e.unit
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(name)
			if name == "fleet" {
				cfg = withOwnGolden(t, cfg)
			}
			_, plain, _ := tinyRun(t, name, cfg, false)
			if len(plain.Metrics) != len(e2e) {
				t.Errorf("untraced run prints %d metrics, want %d", len(plain.Metrics), len(e2e))
			}
			for n, u := range e2e {
				if m, ok := plain.Metrics[n]; !ok || m.Unit != u || m.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", n, m, u)
				}
			}
			detail, traced, chrome := tinyRun(t, name, cfg, true)
			want := perLayerNames()
			if len(traced.Metrics) != len(want) {
				t.Errorf("traced run prints %d metrics, want %d", len(traced.Metrics), len(want))
			}
			for _, n := range want {
				if _, ok := traced.Metrics[n]; !ok {
					t.Errorf("traced run lacks %s", n)
				}
			}
			// The tracing overhead compares these with an untraced run's.
			for n := range e2e {
				if m, ok := detail[n]; !ok || m.Value <= 0 {
					t.Errorf("traced run's details lack end-to-end %s", n)
				}
			}
			if _, err := trace.ValidateChrome(chrome); err != nil {
				t.Errorf("traced run's Chrome trace: %v", err)
			}
		})
	}
}

// perLayerNames lists the per-layer metrics a traced run must print.
func perLayerNames() []string {
	names := []string{
		"backend.module_loads", "backend.bytes_loaded", "core.hit_ratio", "core.lookups_per_hit",
		"bench.outside_calls.share", "runtime.gc_count", "runtime.gc_pause_ms", "runtime.mallocs",
	}
	for _, l := range layers {
		names = append(names, "cpu."+l+".share")
	}
	for _, s := range stages {
		names = append(names, "cum."+s.name+".share")
	}
	for _, s := range setupStages {
		names = append(names, "setup."+s.name+".share")
	}
	return names
}

// TestPerLayerNamesMatchBenchmarkJSON keeps the declared per-layer list and
// what a traced run prints the same.
func TestPerLayerNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range spec.PerLayer {
		declared = append(declared, m.Name)
	}
	want := perLayerNames()
	slices.Sort(declared)
	slices.Sort(want)
	if !slices.Equal(declared, want) {
		t.Errorf("BENCHMARK.json per_layer %v\ntraced run prints %v", declared, want)
	}
}

func TestTwoRunsRecordEqualDigests(t *testing.T) {
	for _, name := range []string{"coldstart", "fleet"} {
		var files [2][]byte
		for i := range files {
			cfg := withOwnGolden(t, tinyConfig(name))
			tinyRun(t, name, cfg, false)
			data, err := os.ReadFile(filepath.Join(cfg.goldenDir, name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			files[i] = data
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: two runs recorded different digests:\n%s\n%s", name, files[0], files[1])
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "measure", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 60 * ms, Parent: 0},  // overlaps a
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0}, // runs past the parent
		{Name: "d", Start: 35 * ms, End: 50 * ms, Parent: 2},  // grandchild
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 30 * ms, 15 * ms, 30 * ms, 15 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	if got := outsideCalls(spans); got != 0.4 {
		t.Errorf("outside calls %v, want 0.4", got)
	}
}

// A slow handler holds both workers, so requests due meanwhile wait. Their
// latency must count from their due time, while the generator's own
// lateness stays small because it sent each one as soon as a worker was free.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	var calls atomic.Int32
	slowFirstTwo := func(string) error {
		if calls.Add(1) <= 2 {
			time.Sleep(40 * ms)
		}
		return nil
	}
	jobs := []job{{due: 0}, {due: 1 * ms}, {due: 2 * ms}, {due: 3 * ms}}
	openLoop(jobs, 100*ms, slowFirstTwo, nil, -1, 0)
	st, lat := summarise(jobs, 40, 100*ms)
	for i := 2; i < 4; i++ {
		j := jobs[i]
		if !j.started {
			t.Fatalf("job %d never started", i)
		}
		if wait := j.sent - j.due; wait < 30*ms {
			t.Errorf("job %d waited %v behind the slow calls, want >= 30ms", i, wait)
		}
		if lat[i] < j.done-j.due || lat[i] < 30*ms {
			t.Errorf("job %d latency %v does not count from its due time", i, lat[i])
		}
		if late := j.sent - max(j.due, j.free); late > 15*ms {
			t.Errorf("job %d: generator lateness %v, want small", i, late)
		}
	}
	if st.sent != 4 || st.backlog != 0 {
		t.Errorf("step %+v: want all 4 sent and no backlog", st)
	}

	// When the stall outlasts the step and its grace period, the jobs left
	// unsent count as missing the limit, with the step's length as latency.
	stall := func(string) error { time.Sleep(60 * ms); return nil }
	jobs = []job{{due: 0}, {due: 1 * ms}, {due: 2 * ms}, {due: 3 * ms}}
	openLoop(jobs, 20*ms, stall, nil, -1, 0)
	st, lat = summarise(jobs, 200, 20*ms)
	if st.sent != 2 || st.backlog != 2 || lat[2] != 20*ms || lat[3] != 20*ms {
		t.Errorf("stalled step %+v, latencies %v: want 2 sent, 2 unsent at 20ms", st, lat)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	par := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name string
		chg  []float64
		want string
	}{
		{"faster everywhere", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, "better"},
		{"slower beyond bound", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "worse"},
		{"same", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, "within bound"},
	} {
		if got := verdict(par, c.chg, true, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := verdict(noisy, noisy, true, 0.1); got != "unresolved" {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}
	// Five pairs are too few for a gain, even one the change wins every time.
	if got := verdict(par[:5], []float64{90, 91, 89, 90, 92}, true, 0.1); got != "unresolved" {
		t.Errorf("five pairs: verdict %q, want unresolved", got)
	}
}

func TestLayerSharesFromARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spec := []codeobj.KernelSpec{{Name: "k", CodeSize: 1 << 20}}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if _, err := codeobj.Build("obj", "gfx908", spec); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := p.layerShares()
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// Under the race detector the instrumentation's own samples carry no
	// Go frame and land in other; among the pask layers codeobj must lead.
	for _, l := range layers {
		if l != "codeobj" && l != "runtime" && l != "other" && shares[l] >= shares["codeobj"] {
			t.Errorf("%s share %v >= codeobj share %v while only codeobj.Build ran", l, shares[l], shares["codeobj"])
		}
	}
	if shares["codeobj"] == 0 {
		t.Error("no samples attributed to codeobj while only codeobj.Build ran")
	}
	// codeobj.Build's cumulative share holds its own samples and those of
	// everything it calls.
	for _, s := range stages {
		cum := p.cumShare(s)
		if s.name == "codeobj_build" && cum < shares["codeobj"] {
			t.Errorf("cumulative codeobj.Build share %v below codeobj's own share %v", cum, shares["codeobj"])
		}
		if s.name == "metrics_breakdown" && cum != 0 {
			t.Errorf("metrics.Breakdown share %v while it never ran", cum)
		}
	}
}
