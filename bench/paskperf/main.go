// Command paskperf is the repository's end-to-end host-cost benchmark. It
// times calls into the system's public functions from outside — building
// systems and running cold starts, the paper sweep, fleet serving and the
// HTTP service over loopback — and checks every output against committed
// digests. Virtual time is the simulation's semantics and is only checked
// for equality; host time and memory are what it measures.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	paskperf -workload sweep|coldstart|fleet|http [-seed 1] [-seconds 20] [-trace 0|1]
//	         [-trace-out file.json] [-cpuprofile file.pprof] [-detail-out file.json]
//	paskperf -workload all -runs N -out dir/ [-seconds 20] [-trace 0|1]
//	paskperf -compare parent/ [change/]
//	paskperf -workload <name> -update-golden
//
// A run sets up, measures for -seconds and prints its metrics, then one JSON
// line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. A traced run is the
// same run with spans around the calls into the program and a CPU profile
// of its set-up and of its measurement; the per-layer metrics come from
// those. It exits 1 when any output differs from bench/golden.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config sizes a workload. The zero value of every size field means the
// benchmark's size; tests shrink them.
type config struct {
	seed        int64
	goldenDir   string
	update      bool     // record golden digests instead of checking them
	models      []string // zoo models (default: all twelve)
	devices     []string // device profiles for coldstart (default: all three)
	experiments []string // sweep experiments (default: all but hostperf)
	arrivals    int      // fleet arrivals per ServeFleetModels call
	rates       []float64
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	latencies []time.Duration // host latency of each operation
	units     int             // work units completed, for ops_per_s and alloc per op
	elapsed   time.Duration   // host time the units took
	// windows holds the throughput of each stretch of the phase (a round, a
	// call); ops_per_s is their median, which a short slow spell of the host
	// moves less than the mean.
	windows   []float64
	attempted int
	failed    int
	loads     loadTally
}

// loadTally sums what the operations of a stretch report about module
// loading and kernel reuse: cold-start reports on coldstart and http, the
// fleet's totals on fleet. The sweep reports none.
type loadTally struct {
	ops, loads             int
	bytes                  int64
	queries, hits, lookups int // PaSK's cache, where the reports carry it
}

func (t loadTally) metrics() map[string]metric {
	n := float64(max(t.ops, 1))
	return map[string]metric{
		"backend.module_loads": {float64(t.loads) / n, "count"},
		"backend.bytes_loaded": {float64(t.bytes) / n, "B"},
		"core.hit_ratio":       {float64(t.hits) / float64(max(t.queries, 1)), "ratio"},
		"core.lookups_per_hit": {float64(t.lookups) / float64(max(t.hits, 1)), "ratio"},
	}
}

// workload is one named input set. setUp runs once per process and returns
// the time of each set-up unit; measure runs the measured stretch, its spans
// children of root.
type workload interface {
	setUp(tr *tracer) ([]time.Duration, error)
	measure(d time.Duration, tr *tracer, root int) (phase, error)
	// extras returns the workload's own detail metrics, printed before the
	// result line.
	extras() map[string]metric
}

// A storeChecker fingerprints the code-object stores behind its systems
// against the goldens. It costs a second set-up, so only traced runs and
// golden updates call it.
type storeChecker interface {
	checkStores() error
}

var workloadNames = []string{"sweep", "coldstart", "fleet", "http"}

func newWorkload(name string, cfg config, g *goldens) (workload, error) {
	switch name {
	case "sweep":
		return newSweep(cfg, g)
	case "coldstart":
		return newColdstart(cfg, g)
	case "fleet":
		return newFleet(cfg, g)
	case "http":
		return newHTTP(cfg, g)
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s, all)", name, strings.Join(workloadNames, ", "))
}

// e2eUnits lists the end-to-end metrics every workload reports.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"}, {"alloc_kb_per_op", "kB"}, {"max_rss_mb", "MB"},
}

type memDelta struct{ alloc, gcs uint64 }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{b.TotalAlloc - a.TotalAlloc, uint64(b.NumGC - a.NumGC)}
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// profiled runs f under a CPU profile written to prof, or just runs f when
// prof is nil.
func profiled(prof *bytes.Buffer, f func() error) error {
	if prof == nil {
		return f()
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	return f()
}

// timedPhase runs the measured stretch, inside a root span and under prof,
// and derives the end-to-end metrics other than setup_s and max_rss_mb, at
// the host's speed.
func timedPhase(w workload, d time.Duration, tr *tracer, prof *bytes.Buffer) (phase, map[string]metric, memDelta, error) {
	runtime.GC()
	m0 := readMem()
	var ph phase
	err := profiled(prof, func() (err error) {
		root := tr.begin("measure", "measure", -1, -1)
		defer tr.end(root)
		ph, err = w.measure(d, tr, root)
		return err
	})
	if err != nil {
		return ph, nil, memDelta{}, err
	}
	md := diffMem(m0, readMem())
	lat := toMs(ph.latencies)
	rate := float64(ph.units) / ph.elapsed.Seconds()
	if len(ph.windows) > 0 {
		rate = median(ph.windows)
	}
	out := map[string]metric{
		"op_p50_ms":       {percentile(lat, 0.5), "ms"},
		"op_p99_ms":       {percentile(lat, 0.99), "ms"},
		"ops_per_s":       {rate, "1/s"},
		"alloc_kb_per_op": {float64(md.alloc) / float64(max(ph.units, 1)) / 1024, "kB"},
	}
	return ph, out, md, nil
}

// atReferenceSpeed rescales the time metrics of raw to the reference host's
// speed, given the run's speed factor.
func atReferenceSpeed(raw map[string]metric, f float64) map[string]metric {
	out := maps.Clone(raw)
	for _, k := range []string{"setup_s", "op_p50_ms", "op_p99_ms"} {
		out[k] = metric{raw[k].Value / f, raw[k].Unit}
	}
	out["ops_per_s"] = metric{raw["ops_per_s"].Value * f, raw["ops_per_s"].Unit}
	return out
}

// runOptions are the per-run knobs of one workload process.
type runOptions struct {
	seconds  float64
	traced   bool
	traceOut string
	cpuOut   string
}

// run executes one workload in this process and returns the detail metrics
// (printed before the result line) and the result. A traced run does the
// same work with the same inputs as an untraced one, so the end-to-end
// metrics among its details, compared with an untraced run's, give the
// tracing overhead.
func run(name string, cfg config, o runOptions) (map[string]metric, result, error) {
	g := newGoldens(cfg.goldenDir, cfg.update, name)
	w, err := newWorkload(name, cfg, g)
	if err != nil {
		return nil, result{}, err
	}
	if c, ok := w.(interface{ close() }); ok {
		defer c.close()
	}
	sp := startSpeedProbe()
	defer sp.stopProbe()
	var tr *tracer
	var setupProf, measureProf *bytes.Buffer
	if o.traced {
		tr, setupProf, measureProf = newTracer(), new(bytes.Buffer), new(bytes.Buffer)
	}
	var units []time.Duration
	err = profiled(setupProf, func() (err error) {
		units, err = w.setUp(tr)
		return err
	})
	if err != nil {
		return nil, result{}, fmt.Errorf("%s set-up: %w", name, err)
	}
	var unitS []float64
	for _, u := range units {
		unitS = append(unitS, u.Seconds())
	}
	d := time.Duration(o.seconds * float64(time.Second))
	ph, raw, md, err := timedPhase(w, d, tr, measureProf)
	if err != nil {
		return nil, result{}, fmt.Errorf("%s: %w", name, err)
	}
	mem := readMem()
	raw["setup_s"] = metric{median(unitS), "s"}
	raw["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	f := sp.factor()
	e2e := atReferenceSpeed(raw, f)
	res := result{Attempted: ph.attempted, Failed: ph.failed, Metrics: e2e}
	detail := map[string]metric{"host.speed_factor": {f, "ratio"}}
	for k, v := range e2e {
		detail[k] = v
		detail["raw."+k] = raw[k]
	}
	for k, v := range w.extras() {
		detail[k] = v
	}
	detail["measure.gc_count"] = metric{float64(md.gcs), "count"}

	if sc, ok := w.(storeChecker); ok && (o.traced || cfg.update) {
		if err := sc.checkStores(); err != nil {
			return nil, result{}, fmt.Errorf("%s stores: %w", name, err)
		}
	}
	if o.traced {
		layers, err := perLayer(setupProf.Bytes(), measureProf.Bytes(), tr.snapshot(), ph, mem)
		if err != nil {
			return nil, result{}, fmt.Errorf("%s traced: %w", name, err)
		}
		res.Metrics = layers
		for k, v := range layers {
			detail[k] = v
		}
		if err := writeTraced(o, measureProf.Bytes(), tr.snapshot()); err != nil {
			return nil, result{}, err
		}
	}
	problems := g.issues()
	res.Correct = len(problems) == 0 && res.Failed == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "paskperf: mismatch:", p)
	}
	if cfg.update {
		if err := g.save(); err != nil {
			return nil, result{}, err
		}
	}
	return detail, res, nil
}

// perLayer derives a traced run's per-layer metrics: CPU shares by layer
// and by stage from the profiles of its set-up and of its measured stretch,
// the share of the stretch spent outside calls into the program from its
// spans, the loads its operations reported, and the runtime's counters at
// the stretch's end. The counters run from process start: a workload with a
// large live heap may not collect at all within one stretch.
func perLayer(setupProf, measureProf []byte, spans []span, ph phase, mem runtime.MemStats) (map[string]metric, error) {
	sp, err := readProfile(setupProf)
	if err != nil {
		return nil, err
	}
	mp, err := readProfile(measureProf)
	if err != nil {
		return nil, err
	}
	out := ph.loads.metrics()
	for l, v := range mp.layerShares() {
		out["cpu."+l+".share"] = metric{v, "share"}
	}
	for _, s := range stages {
		out["cum."+s.name+".share"] = metric{mp.cumShare(s), "share"}
	}
	for _, s := range setupStages {
		out["setup."+s.name+".share"] = metric{sp.cumShare(s), "share"}
	}
	out["bench.outside_calls.share"] = metric{outsideCalls(spans), "share"}
	out["runtime.gc_count"] = metric{float64(mem.NumGC), "count"}
	out["runtime.gc_pause_ms"] = metric{float64(mem.PauseTotalNs) / 1e6, "ms"}
	out["runtime.mallocs"] = metric{float64(mem.Mallocs), "count"}
	return out, nil
}

// writeTraced writes the measured stretch's CPU profile and the spans as
// Chrome JSON.
func writeTraced(o runOptions, prof []byte, spans []span) error {
	for _, p := range []string{o.traceOut, o.cpuOut} {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(o.cpuOut, prof, 0o644); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		return err
	}
	return os.WriteFile(o.traceOut, buf.Bytes(), 0o644)
}

// printDetail prints every detail metric, one per line, sorted by name.
func printDetail(name string, detail map[string]metric) {
	keys := make([]string, 0, len(detail))
	for k := range detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-10s %-40s %16.6g %s\n", name, k, detail[k].Value, detail[k].Unit)
	}
}

func main() {
	wl := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1: record spans and CPU profiles, and print per-layer metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace of the traced run (default .bench_build/paskperf-<workload>.trace.json)")
	cpuOut := flag.String("cpuprofile", "", "CPU profile of the traced run's measured stretch (default .bench_build/paskperf-<workload>.pprof)")
	detailOut := flag.String("detail-out", "", "file for the run's detail metrics as JSON")
	goldenDir := flag.String("golden", filepath.Join("bench", "golden"), "directory of golden digests")
	update := flag.Bool("update-golden", false, "record this workload's golden digests instead of checking them")
	runs := flag.Int("runs", 1, "with -workload all: runs per workload, each in a fresh child process")
	outDir := flag.String("out", "", "with -workload all: directory for one JSON result per run")
	compare := flag.Bool("compare", false, "compare result directories given as arguments: parent/ [change/]")
	bounds := flag.String("bounds", "BENCHMARK.json", "with -compare: file holding the metric bounds")
	flag.Parse()

	// Experiments that stage files use the process temp directory; keep it
	// inside the checkout.
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err == nil {
		if abs, err := filepath.Abs(tmp); err == nil {
			os.Setenv("TMPDIR", abs)
		}
	}

	switch {
	case *compare:
		if err := compareDirs(flag.Args(), *bounds, os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *wl == "all":
		if err := runAll(*runs, *outDir, *seed, *seconds, *traceFlag, *goldenDir); err != nil {
			fatal(err)
		}
		return
	case *wl == "":
		fatal(fmt.Errorf("-workload is required (%s, all)", strings.Join(workloadNames, ", ")))
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "paskperf-"+*wl+".trace.json")
	}
	if *cpuOut == "" {
		*cpuOut = filepath.Join(".bench_build", "paskperf-"+*wl+".pprof")
	}
	cfg := config{seed: *seed, goldenDir: *goldenDir, update: *update}
	detail, res, err := run(*wl, cfg, runOptions{seconds: *seconds, traced: *traceFlag == 1, traceOut: *traceOut, cpuOut: *cpuOut})
	if err != nil {
		fatal(err)
	}
	printDetail(*wl, detail)
	if *detailOut != "" {
		data, err := json.Marshal(detail)
		if err == nil {
			err = os.WriteFile(*detailOut, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paskperf:", err)
	os.Exit(2)
}
