package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pask/internal/core"
	"pask/internal/experiments"
	"pask/internal/httpapi"
	"pask/internal/trace"
)

// httpWL drives the HTTP service over loopback with an open loop: seeded
// Poisson arrivals at a few fixed rates, sent by at most two workers over at
// most two connections. Every POST records a trace and every trace GET
// serialises one, so the trace layer both writes and reads here, and the
// server's lock and queueing are on the critical path.
type httpWL struct {
	cfg    config
	gold   *digests // trace digests
	cold   *digests // report digests shared with coldstart
	models []string
	rates  []float64
	combos []combo
	srv    *httptest.Server
	client *http.Client

	mu     sync.Mutex
	latest string           // id of the latest stored run
	posts  int              // POSTs sent, for the combo rotation
	runOf  map[string]combo // run id -> what it ran, for trace digests

	loads                   loadTally // over the measured POSTs
	traceBytes, traceEvents float64   // means over the set-up traces
	steps                   []stepStats
	service                 map[string][]time.Duration // per kind, middle step
	queueWait               []time.Duration
	lateness                []time.Duration
}

type combo struct{ model, scheme string }

// Request kinds and their shares of the mix.
const (
	kindPost    = "post_coldstart"
	kindTrace   = "get_trace"
	kindMetrics = "get_metrics"
)

// latencyLimit is the p99 a rate must meet to count as sustained.
const latencyLimit = 50 * time.Millisecond

func newHTTP(cfg config, g *goldens) (*httpWL, error) {
	gold, err := g.get("http")
	if err != nil {
		return nil, err
	}
	cold, err := g.get("coldstart")
	if err != nil {
		return nil, err
	}
	w := &httpWL{cfg: cfg, gold: gold, cold: cold, models: cfg.models, rates: cfg.rates, runOf: map[string]combo{}}
	if len(w.models) == 0 {
		w.models = experiments.AllModelAbbrs()
	}
	if len(w.rates) == 0 {
		w.rates = []float64{120, 150, 700}
	}
	for _, m := range w.models {
		for _, s := range core.Schemes() {
			w.combos = append(w.combos, combo{m, string(s)})
		}
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(w.combos), func(i, j int) {
		w.combos[i], w.combos[j] = w.combos[j], w.combos[i]
	})
	return w, nil
}

func (w *httpWL) close() {
	if w.srv != nil {
		w.srv.Close()
	}
}

// post sends one coldstart, checks the body against the report digest and
// returns the run's id and report.
func (w *httpWL) post(c combo) (*httpapi.ColdStartResponse, error) {
	body := fmt.Sprintf(`{"model":%q,"scheme":%q}`, c.model, c.scheme)
	resp, err := w.client.Post(w.srv.URL+"/v1/coldstart", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s/%s: %s", c.model, c.scheme, resp.Status)
	}
	var r httpapi.ColdStartResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.RunID == "" || r.TraceURL != "/v1/runs/"+r.RunID+"/trace" {
		return nil, fmt.Errorf("POST %s/%s: run id %q, trace url %q", c.model, c.scheme, r.RunID, r.TraceURL)
	}
	if !w.cold.check(reportKey(c.model, r.Device, c.scheme), shaJSON(canonFromHTTP(&r))) {
		return nil, fmt.Errorf("POST %s/%s: report differs from golden", c.model, c.scheme)
	}
	return &r, nil
}

func (w *httpWL) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// setUp starts the server and posts every scheme for each model once; each
// model's group is a unit, its first POST paying the server's model set-up.
// Every run's trace is then fetched, validated and checked.
func (w *httpWL) setUp(tr *tracer) ([]time.Duration, error) {
	w.srv = httptest.NewServer(httpapi.New())
	w.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}
	var units []time.Duration
	var n int
	for _, m := range w.models {
		var ids []string
		var cs []combo
		t0 := time.Now()
		for _, s := range core.Schemes() {
			c := combo{m, string(s)}
			sp := tr.begin("http.post_coldstart", "setup", -1, int64(len(units)))
			r, err := w.post(c)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			ids, cs = append(ids, r.RunID), append(cs, c)
		}
		units = append(units, time.Since(t0))
		for i, id := range ids {
			data, err := w.get("/v1/runs/" + id + "/trace")
			if err != nil {
				return nil, err
			}
			sum, err := trace.ValidateChrome(data)
			if err != nil {
				w.gold.fail("trace of %s/%s: %v", cs[i].model, cs[i].scheme, err)
			}
			w.gold.check("trace/"+cs[i].model+"/"+cs[i].scheme, sha(data))
			w.traceBytes += float64(len(data))
			w.traceEvents += float64(sum.Events)
			n++
			w.runOf[id] = cs[i]
			w.latest = id
		}
	}
	w.traceBytes /= float64(max(n, 1))
	w.traceEvents /= float64(max(n, 1))
	return units, nil
}

// job is one scheduled request.
type job struct {
	due  time.Duration // offset from the step start
	kind string
	// Filled in by the worker.
	sent, done, free time.Duration
	started, ok      bool
}

// do sends one request of the job's kind and checks its response.
func (w *httpWL) do(kind string) error {
	switch kind {
	case kindPost:
		w.mu.Lock()
		c := w.combos[w.posts%len(w.combos)]
		w.posts++
		w.mu.Unlock()
		r, err := w.post(c)
		if err != nil {
			return err
		}
		w.mu.Lock()
		w.runOf[r.RunID] = c
		w.latest = r.RunID
		t := &w.loads
		t.ops++
		t.loads += r.Loads
		t.bytes += r.LoadedBytes
		if c.scheme == string(core.SchemePaSK) {
			t.queries += r.ReuseQueries
			t.hits += r.ReuseHits
		}
		w.mu.Unlock()
	case kindTrace:
		w.mu.Lock()
		id := w.latest
		c := w.runOf[id]
		w.mu.Unlock()
		data, err := w.get("/v1/runs/" + id + "/trace")
		if err != nil {
			return err
		}
		if !w.gold.check("trace/"+c.model+"/"+c.scheme, sha(data)) {
			return fmt.Errorf("trace of %s differs from golden", id)
		}
	case kindMetrics:
		data, err := w.get("/metrics")
		if err != nil {
			return err
		}
		if !bytes.Contains(data, []byte("pask_server_runs_total")) {
			return fmt.Errorf("/metrics lacks pask_server_runs_total")
		}
	}
	return nil
}

// schedule draws one step's arrivals: rate·d due times, uniform over the
// step and sorted, which is a Poisson process conditioned on its count, so
// every step has a known number of samples. The mix is exactly 45% coldstart
// POSTs, 45% trace GETs and 10% /metrics, in a seeded order, so the work a
// step asks for does not vary with the seed.
func schedule(rate float64, d time.Duration, rng *rand.Rand) []job {
	jobs := make([]job, int(rate*d.Seconds()))
	for i := range jobs {
		jobs[i].due = time.Duration(rng.Int63n(int64(d)))
		switch {
		case i < len(jobs)*45/100:
			jobs[i].kind = kindPost
		case i < len(jobs)*90/100:
			jobs[i].kind = kindTrace
		default:
			jobs[i].kind = kindMetrics
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a].kind, jobs[b].kind = jobs[b].kind, jobs[a].kind })
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].due < jobs[b].due })
	return jobs
}

// openLoop runs jobs, all due before d, with two workers taking them in
// due order. A worker that is free before a job is due sleeps until then;
// one that is late sends at once. After d the workers drain the backlog for
// a grace period of d/10 and then stop; jobs left unsent stay unsent. Each
// request's span is a child of root; its wait for a worker is a span of its
// own, since no call into the program runs then.
func openLoop(jobs []job, d time.Duration, do func(kind string) error, tr *tracer, root int, op0 int64) {
	start := time.Now()
	stop := d + d/10
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < 2; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			track := fmt.Sprintf("http-worker-%d", wk)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				j.free = time.Since(start)
				if j.free >= stop {
					return
				}
				if wait := j.due - j.free; wait > 0 {
					time.Sleep(wait)
				}
				j.sent = time.Since(start)
				j.started = true
				err := do(j.kind)
				j.done = time.Since(start)
				j.ok = err == nil
				if err != nil {
					fmt.Fprintln(os.Stderr, "paskperf: http:", err)
				}
				tr.record("http.wait", track, start.Add(j.due), start.Add(j.sent), -1, op0+int64(i))
				tr.record("http."+j.kind, track, start.Add(j.sent), start.Add(j.done), root, op0+int64(i))
			}
		}(wk)
	}
	wg.Wait()
}

// stepStats summarises one rate step.
type stepStats struct {
	rate, achieved     float64
	p50, p99           time.Duration
	samples, sent, bad int
	backlog            int // jobs due by the step's end and not yet sent
	meets              bool
}

// summarise computes a step's latencies from due time. Failed and unsent
// jobs count as missing the limit: they take the step's length as latency.
func summarise(jobs []job, rate float64, d time.Duration) (stepStats, []time.Duration) {
	st := stepStats{rate: rate, samples: len(jobs)}
	lat := make([]time.Duration, len(jobs))
	var completed int
	span := d
	for i, j := range jobs {
		lat[i] = d
		if j.started {
			st.sent++
			span = max(span, j.done)
		}
		switch {
		case j.started && j.ok:
			lat[i] = j.done - j.due
			completed++
		case j.started:
			st.bad++
		}
		if !j.started || j.sent > d {
			st.backlog++
		}
	}
	st.achieved = float64(completed) / span.Seconds()
	lms := toMs(lat)
	st.p50 = time.Duration(percentile(lms, 0.5) * float64(time.Millisecond))
	st.p99 = time.Duration(percentile(lms, 0.99) * float64(time.Millisecond))
	// A backlog that ends the step larger than 2% of its requests (and more
	// than 10) is growing: the rate is not sustained.
	growing := st.backlog > max(10, len(jobs)/50)
	st.meets = st.p99 <= latencyLimit && !growing && st.bad == 0
	return st, lat
}

// completionRates counts successful completions in half-second windows
// of a step, up to its end, and returns the rate in each window.
func completionRates(jobs []job, d time.Duration) []float64 {
	const win = 500 * time.Millisecond
	n := int(d / win)
	if n == 0 {
		return nil
	}
	counts := make([]int, n)
	for _, j := range jobs {
		if k := int(j.done / win); j.started && j.ok && k < n {
			counts[k]++
		}
	}
	out := make([]float64, n)
	for i, c := range counts {
		out[i] = float64(c) / win.Seconds()
	}
	return out
}

// stepArrivals is how many arrivals the lowest rate is given time for:
// more than ten samples beyond its p99.
const stepArrivals = 1100

// stepDurations splits d over the rates. The lowest gets time for
// stepArrivals; the highest, which measures capacity, gets at least d/7 so
// that it spans several garbage-collection cycles of the server; the middle
// rate, whose latencies are the end-to-end ones, gets the rest. When d is
// too short for that, each step gets time in proportion to 1/rate.
func stepDurations(rates []float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, len(rates))
	mid, top := len(rates)/2, len(rates)-1
	rest := d
	for i, r := range rates {
		if i == mid {
			continue
		}
		out[i] = time.Duration(stepArrivals / r * float64(time.Second))
		if i == top {
			out[i] = max(out[i], d/7)
		}
		rest -= out[i]
	}
	if rest >= d/3 {
		out[mid] = rest
		return out
	}
	var inv float64
	for _, r := range rates {
		inv += 1 / r
	}
	for i, r := range rates {
		out[i] = time.Duration(float64(d) / r / inv)
	}
	return out
}

// measure runs the rates in order. The end-to-end latencies are the middle
// rate's; ops_per_s is the median completion rate over the half-second
// windows of the highest offered rate, which lies above capacity.
func (w *httpWL) measure(d time.Duration, tr *tracer, root int) (phase, error) {
	var ph phase
	rng := rand.New(rand.NewSource(w.cfg.seed))
	durs := stepDurations(w.rates, d)
	for si, rate := range w.rates {
		jobs := schedule(rate, durs[si], rng)
		openLoop(jobs, durs[si], w.do, tr, root, int64(ph.attempted))
		st, lat := summarise(jobs, rate, durs[si])
		w.steps = append(w.steps, st)
		ph.attempted += st.sent
		ph.failed += st.bad
		ph.units += st.sent - st.bad
		ph.elapsed += durs[si]
		if si == len(w.rates)-1 {
			ph.windows = completionRates(jobs, durs[si])
		}
		if si == len(w.rates)/2 {
			ph.latencies = lat
			w.service = map[string][]time.Duration{}
			for _, j := range jobs {
				if !j.started {
					continue
				}
				w.service[j.kind] = append(w.service[j.kind], j.done-j.sent)
				w.queueWait = append(w.queueWait, j.sent-j.due)
			}
		}
		for _, j := range jobs {
			if j.started {
				// How late the sender ran: the wake-up delay beyond both the
				// due time and the moment the worker became free.
				w.lateness = append(w.lateness, j.sent-max(j.due, j.free))
			}
		}
	}
	ph.loads = w.loads
	return ph, nil
}

func (w *httpWL) extras() map[string]metric {
	out := map[string]metric{
		"trace.bytes_per_run":  {w.traceBytes, "B"},
		"trace.events_per_run": {w.traceEvents, "count"},
	}
	maxRPS := 0.0
	for _, st := range w.steps {
		p := fmt.Sprintf("http.rate_%g.", st.rate)
		out[p+"p50_ms"] = metric{ms(st.p50), "ms"}
		out[p+"p99_ms"] = metric{ms(st.p99), "ms"}
		out[p+"achieved_per_s"] = metric{st.achieved, "1/s"}
		out[p+"samples"] = metric{float64(st.samples), "count"}
		out[p+"backlog_end"] = metric{float64(st.backlog), "count"}
		if st.meets {
			maxRPS = max(maxRPS, st.rate)
		}
	}
	out["http_max_rps"] = metric{maxRPS, "1/s"}
	kinds := make([]string, 0, len(w.service))
	for k := range w.service {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		out["httpapi."+k+"_ms"] = metric{percentile(toMs(w.service[k]), 0.5), "ms"}
	}
	out["httpapi.queue_wait_p99_ms"] = metric{percentile(toMs(w.queueWait), 0.99), "ms"}
	out["http.generator_late_p99_ms"] = metric{percentile(toMs(w.lateness), 0.99), "ms"}
	out["http.generator_late_max_ms"] = metric{percentile(toMs(w.lateness), 1), "ms"}
	return out
}
