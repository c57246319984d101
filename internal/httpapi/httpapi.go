// Package httpapi exposes the simulated PASK stack as a small JSON web
// service: clients ask "what would a cold start of model X under scheme Y on
// device Z cost?" and receive the full report. It powers cmd/pasksrv and
// gives capacity planners a programmatic what-if interface. The service is
// not part of the paper's artifact — it operationalizes the reproduction's
// experiments (§IV–§V) behind a stable JSON surface.
//
// The API is versioned under /v1. Run-triggering endpoints are POST with a
// JSON body; every v1 run is recorded and its Chrome trace retrievable at
// GET /v1/runs/{id}/trace; GET /metrics serves a Prometheus text snapshot.
// Errors use a uniform envelope {"error":{"code":..., "message":...}} mapped
// from the stack's typed sentinels.
//
// Paper anchor: beyond-paper operational surface over the §IV–§V experiments.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"pask/internal/cacheimg"
	"pask/internal/codeobj"
	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/metrics"
	"pask/internal/onnx/zoo"
	"pask/internal/serving"
	"pask/internal/trace"
	"pask/internal/warmup"
)

// maxStoredRuns bounds the per-server run history (trace retention).
const maxStoredRuns = 64

// runRecord is one completed v1 run: its recorder (for the trace endpoint)
// and its report (for /metrics).
type runRecord struct {
	id  string
	rec *trace.Recorder
	rep *metrics.Report
}

// Server is the HTTP handler set. Model setups are compiled once per
// (model, device, batch) and cached; runs themselves are deterministic.
type Server struct {
	mu      sync.Mutex
	setups  map[string]*experiments.ModelSetup
	mux     *http.ServeMux
	runs    map[string]*runRecord
	runIDs  []string // insertion order, oldest first
	nextRun int
	// profiles holds the latest recorded warmup manifest per model abbr,
	// retrievable at GET /v1/warmup/{model} and replayed by "warm" runs.
	profiles map[string]*warmup.Manifest
	// images is the server's node-local cache-image store (DESIGN.md §14),
	// opened lazily in a temp directory on first use. POST /v1/cacheimages
	// records and publishes; coldstart runs with "attach_image": true walk
	// its validation ladder, and every rejection lands in its stats (and in
	// /metrics as pask_cacheimg_*).
	images *cacheimg.Store
	// health is the per-GPU state snapshot served at GET /v1/health,
	// captured from the most recent failover experiment run (empty until
	// one runs).
	health []HealthGPU
}

// New returns a ready-to-serve handler.
func New() *Server {
	s := &Server{
		setups:   make(map[string]*experiments.ModelSetup),
		runs:     make(map[string]*runRecord),
		profiles: make(map[string]*warmup.Manifest),
		mux:      http.NewServeMux(),
	}
	// v1: reads are GET, run triggers are POST with a JSON body.
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/devices", s.handleDevices)
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("POST /v1/coldstart", s.handleColdStartV1)
	s.mux.HandleFunc("POST /v1/serve", s.handleServeV1)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentsList)
	s.mux.HandleFunc("POST /v1/experiments/{name}", s.handleExperimentRunV1)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	s.mux.HandleFunc("GET /v1/warmup/{model}", s.handleWarmupProfile)
	s.mux.HandleFunc("GET /v1/cacheimages", s.handleCacheImagesList)
	s.mux.HandleFunc("POST /v1/cacheimages", s.handleCacheImagesBuild)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// statusFromErr maps the stack's typed sentinels to HTTP statuses: a shed
// request is 429 (the client should back off and retry), an open breaker is
// 503 (the model is sick — retrying immediately won't help), a missed
// deadline is a gateway timeout, a crashed instance or an exhausted
// degradation ladder is service unavailability, a missing code object is a
// 404, and anything unrecognized stays a blanket 500.
func statusFromErr(err error) int {
	switch {
	case errors.Is(err, serving.ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, serving.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, serving.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, serving.ErrInstanceCrashed), errors.Is(err, core.ErrNoUsableSolution):
		return http.StatusServiceUnavailable
	case errors.Is(err, codeobj.ErrNotFound), errors.Is(err, cacheimg.ErrNoImage):
		return http.StatusNotFound
	case errors.Is(err, cacheimg.ErrProfileMismatch), errors.Is(err, cacheimg.ErrStale):
		return http.StatusConflict
	case errors.Is(err, cacheimg.ErrCorrupt), errors.Is(err, cacheimg.ErrVersion):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// codeFromErr names the error for the machine-readable envelope field.
func codeFromErr(err error, status int) string {
	switch {
	case errors.Is(err, serving.ErrShed):
		return "shed"
	case errors.Is(err, serving.ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, serving.ErrDeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, serving.ErrInstanceCrashed):
		return "instance_crashed"
	case errors.Is(err, core.ErrNoUsableSolution):
		return "no_usable_solution"
	case errors.Is(err, codeobj.ErrNotFound):
		return "object_not_found"
	case errors.Is(err, cacheimg.ErrNoImage):
		return "no_image"
	case errors.Is(err, cacheimg.ErrProfileMismatch):
		return "image_profile_mismatch"
	case errors.Is(err, cacheimg.ErrStale):
		return "image_stale"
	case errors.Is(err, cacheimg.ErrCorrupt):
		return "image_corrupt"
	case errors.Is(err, cacheimg.ErrVersion):
		return "image_version"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	default:
		return "internal"
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ErrorBody is the machine-readable error in the v1 envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the uniform error response shape.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:    codeFromErr(err, status),
		Message: err.Error(),
	}})
}

// badRequest is the 400 shortcut every validator uses.
func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeErr(w, http.StatusBadRequest, fmt.Errorf(format, args...))
}

// decodeBody parses a v1 JSON request body into dst.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(dst); err != nil {
		badRequest(w, "invalid JSON body: %v", err)
		return false
	}
	return true
}

// storeRun registers a completed run and returns its id. Oldest runs are
// dropped past maxStoredRuns.
func (s *Server) storeRun(rec *trace.Recorder, rep *metrics.Report) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextRun++
	id := fmt.Sprintf("run-%d", s.nextRun)
	s.runs[id] = &runRecord{id: id, rec: rec, rep: rep}
	s.runIDs = append(s.runIDs, id)
	for len(s.runIDs) > maxStoredRuns {
		delete(s.runs, s.runIDs[0])
		s.runIDs = s.runIDs[1:]
	}
	return id
}

// snapshotRuns returns the stored runs oldest-first.
func (s *Server) snapshotRuns() []*runRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*runRecord, 0, len(s.runIDs))
	for _, id := range s.runIDs {
		out = append(out, s.runs[id])
	}
	return out
}

// ModelInfo is one /v1/models entry.
type ModelInfo struct {
	Abbr string `json:"abbr"`
	Name string `json:"name"`
	Type string `json:"type"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	var out []ModelInfo
	for _, spec := range zoo.Models() {
		out = append(out, ModelInfo{Abbr: spec.Abbr, Name: spec.Name, Type: spec.Type})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	var out []string
	for _, p := range device.Profiles() {
		out = append(out, p.Name)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	var out []string
	for _, sch := range core.Schemes() {
		out = append(out, string(sch))
	}
	writeJSON(w, http.StatusOK, out)
}

// parseScheme validates a scheme name ("" defaults to PaSK).
func parseScheme(name string) (core.Scheme, error) {
	if name == "" {
		return core.SchemePaSK, nil
	}
	scheme := core.Scheme(name)
	for _, sch := range core.Schemes() {
		if sch == scheme {
			return scheme, nil
		}
	}
	return "", fmt.Errorf("unknown scheme %q", name)
}

// resolveModel validates a request's model, device ("" defaults to MI100)
// and batch (0 defaults to 1) and returns the model's cached setup with the
// resolved device and batch. Every error it returns is a 400.
func (s *Server) resolveModel(model, dev string, batch int) (*experiments.ModelSetup, device.Profile, int, error) {
	if model == "" {
		return nil, device.Profile{}, 0, fmt.Errorf("missing model")
	}
	if dev == "" {
		dev = "MI100"
	}
	prof, ok := device.ProfileByName(dev)
	if !ok {
		return nil, device.Profile{}, 0, fmt.Errorf("unknown device %q", dev)
	}
	if batch == 0 {
		batch = 1
	}
	if batch < 1 {
		return nil, device.Profile{}, 0, fmt.Errorf("bad batch %d", batch)
	}
	ms, err := s.setup(model, batch, prof)
	if err != nil {
		return nil, device.Profile{}, 0, err
	}
	return ms, prof, batch, nil
}

// ColdStartRequest is the POST /v1/coldstart body.
type ColdStartRequest struct {
	Model   string `json:"model"`
	Scheme  string `json:"scheme,omitempty"`  // default "PaSK"
	Device  string `json:"device,omitempty"`  // default "MI100"
	Batch   int    `json:"batch,omitempty"`   // default 1
	Compare bool   `json:"compare,omitempty"` // also run Baseline, report speedup

	// RecordProfile captures this run's load order as the model's warmup
	// manifest (GET /v1/warmup/{model}); Warm replays the stored manifest
	// through a prefetcher before the run. A missing manifest is not an
	// error — the run simply starts cold.
	RecordProfile bool `json:"record_profile,omitempty"`
	Warm          bool `json:"warm,omitempty"`

	// AttachImage walks the server's cache-image store down the validation
	// ladder for this (model, device) and replays the attached image's
	// manifest. Any rejection — no image, wrong profile, stale fingerprint,
	// quarantined corruption — degrades the run to a plain cold start; the
	// typed outcome is reported in image_attach and counted in the store's
	// stats (pask_cacheimg_* in /metrics).
	AttachImage bool `json:"attach_image,omitempty"`
}

// ColdStartResponse is the coldstart reply.
type ColdStartResponse struct {
	Model  string `json:"model"`
	Scheme string `json:"scheme"`
	Device string `json:"device"`
	Batch  int    `json:"batch"`

	TotalMs       float64            `json:"total_ms"`
	Utilization   float64            `json:"gpu_utilization"`
	Loads         int                `json:"code_objects_loaded"`
	LoadedBytes   int64              `json:"bytes_loaded"`
	ReuseQueries  int                `json:"reuse_queries"`
	ReuseHits     int                `json:"reuse_hits"`
	SkippedLoads  int                `json:"skipped_loads"`
	Milestone     int                `json:"milestone"`
	BreakdownMs   map[string]float64 `json:"breakdown_ms"`
	SpeedupVsBase float64            `json:"speedup_vs_baseline,omitempty"`

	// Warmup replay accounting (set when the run recorded or replayed a
	// load profile).
	ProfileRecorded  bool `json:"profile_recorded,omitempty"`
	WarmupEntries    int  `json:"warmup_entries,omitempty"`
	WarmupPrefetched int  `json:"warmup_prefetched,omitempty"`
	WarmupHits       int  `json:"warmup_hits,omitempty"`
	WarmupStale      int  `json:"warmup_stale,omitempty"`

	// Cache-image attach outcome (set when attach_image was requested):
	// ImageAttach is "ok" or the typed rejection code, ImageID the content
	// address the run replayed.
	ImageAttach string `json:"image_attach,omitempty"`
	ImageID     string `json:"image_id,omitempty"`

	// RunID and TraceURL locate the recorded timeline, retrievable at
	// TraceURL until the run ages out of the store.
	RunID    string `json:"run_id,omitempty"`
	TraceURL string `json:"trace_url,omitempty"`
}

// runColdStart executes one validated coldstart request, recording into rec.
func (s *Server) runColdStart(req ColdStartRequest, rec *trace.Recorder) (*ColdStartResponse, *metrics.Report, int, error) {
	scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	ms, prof, batch, err := s.resolveModel(req.Model, req.Device, req.Batch)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	var man *warmup.Manifest
	if req.Warm {
		s.mu.Lock()
		man = s.profiles[req.Model]
		s.mu.Unlock()
	}
	var imageAttach, imageID string
	if req.AttachImage {
		st, serr := s.imageStore()
		if serr != nil {
			return nil, nil, http.StatusInternalServerError, serr
		}
		if att, aerr := st.Attach(req.Model, prof, ms.Store.Fingerprint()); aerr == nil {
			man = att.Image.Manifest
			imageAttach, imageID = "ok", att.ID
		} else {
			// Degrade to a plain cold start; the ladder's typed outcome is
			// reported, never failed on.
			imageAttach = codeFromErr(aerr, http.StatusNotFound)
		}
	}
	wr, err := ms.RunSchemeOn(ms.NewProcess(), scheme, core.Options{}, rec, man, req.RecordProfile)
	if err != nil {
		return nil, nil, statusFromErr(err), err
	}
	rep := wr.Rep
	resp := toResponse(req.Model, string(scheme), prof.Name, batch, rep)
	resp.ImageAttach, resp.ImageID = imageAttach, imageID
	if req.RecordProfile && wr.Profile != nil {
		s.mu.Lock()
		s.profiles[req.Model] = wr.Profile
		s.mu.Unlock()
		resp.ProfileRecorded = true
	}
	resp.WarmupEntries = rep.WarmupEntries
	resp.WarmupPrefetched = rep.WarmupPrefetched
	resp.WarmupHits = rep.WarmupHits
	resp.WarmupStale = rep.WarmupStale
	if req.Compare && scheme != core.SchemeBaseline {
		base, _, err := ms.RunScheme(core.SchemeBaseline, core.Options{})
		if err != nil {
			return nil, nil, statusFromErr(err), err
		}
		resp.SpeedupVsBase = float64(base.Total) / float64(rep.Total)
	}
	return resp, rep, http.StatusOK, nil
}

// handleColdStartV1 runs a coldstart from a JSON body, records its trace and
// returns the run id.
func (s *Server) handleColdStartV1(w http.ResponseWriter, r *http.Request) {
	var req ColdStartRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rec := trace.New()
	resp, rep, status, err := s.runColdStart(req, rec)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	resp.RunID = s.storeRun(rec, rep)
	resp.TraceURL = "/v1/runs/" + resp.RunID + "/trace"
	writeJSON(w, http.StatusOK, resp)
}

// handleRunTrace serves a stored run's Chrome trace_event JSON.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	run, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := run.rec.WriteChrome(w); err != nil {
		// Headers are gone; all we can do is drop the connection mid-body.
		return
	}
}

// handleWarmupProfile serves the stored warmup manifest for a model, as
// recorded by the most recent coldstart run with "record_profile": true.
// The payload is the versioned manifest JSON a client can save and feed to
// pask.WithWarmupProfile or paskrun -warmup.
func (s *Server) handleWarmupProfile(w http.ResponseWriter, r *http.Request) {
	model := r.PathValue("model")
	s.mu.Lock()
	man := s.profiles[model]
	s.mu.Unlock()
	if man == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no warmup profile recorded for model %q", model))
		return
	}
	data, err := man.Encode()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// imageStore lazily opens the server's cache-image store in a fresh temp
// directory. The directory lives for the process — images published through
// the API survive across requests, not across server restarts.
func (s *Server) imageStore() (*cacheimg.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.images != nil {
		return s.images, nil
	}
	dir, err := os.MkdirTemp("", "pask-images-*")
	if err != nil {
		return nil, fmt.Errorf("httpapi: image store: %w", err)
	}
	st, err := cacheimg.Open(dir)
	if err != nil {
		return nil, err
	}
	s.images = st
	return st, nil
}

// CacheImagesResponse is the GET /v1/cacheimages reply.
type CacheImagesResponse struct {
	Images []cacheimg.Info `json:"images"`
	Stats  cacheimg.Stats  `json:"stats"`
}

// handleCacheImagesList serves the published images and the store's
// validation-ladder counters.
func (s *Server) handleCacheImagesList(w http.ResponseWriter, r *http.Request) {
	st, err := s.imageStore()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	infos, err := st.List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if infos == nil {
		infos = []cacheimg.Info{}
	}
	writeJSON(w, http.StatusOK, CacheImagesResponse{Images: infos, Stats: st.Stats()})
}

// CacheImageBuildRequest is the POST /v1/cacheimages body: record one cold
// run of (model, device, batch) and seal it into a published image.
type CacheImageBuildRequest struct {
	Model  string `json:"model"`
	Device string `json:"device,omitempty"` // default "MI100"
	Batch  int    `json:"batch,omitempty"`  // default 1
}

// CacheImageBuildResponse describes the published image.
type CacheImageBuildResponse struct {
	ID               string `json:"id"`
	Model            string `json:"model"`
	Device           string `json:"device"`
	Batch            int    `json:"batch"`
	Bytes            int    `json:"bytes"`
	Objects          int    `json:"objects"`
	Entries          int    `json:"entries"`
	StoreFingerprint string `json:"store_fingerprint"`
}

// handleCacheImagesBuild records a load profile for the requested (model,
// device, batch), seals it with its code objects into a content-addressed
// image and publishes it atomically to the server's store, where later
// coldstart runs with "attach_image": true can validate and replay it.
func (s *Server) handleCacheImagesBuild(w http.ResponseWriter, r *http.Request) {
	var req CacheImageBuildRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ms, _, _, err := s.resolveModel(req.Model, req.Device, req.Batch)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	st, err := s.imageStore()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	img, _, err := ms.BuildCacheImage()
	if err != nil {
		writeErr(w, statusFromErr(err), err)
		return
	}
	id, err := st.Publish(img)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	raw, err := img.Encode()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, CacheImageBuildResponse{
		ID: id, Model: img.Model, Device: img.Device, Batch: img.Batch,
		Bytes: len(raw), Objects: len(img.Objects),
		Entries:          len(img.Manifest.Entries),
		StoreFingerprint: fmt.Sprintf("%08x", img.StoreFingerprint),
	})
}

// handleMetrics serves the Prometheus text-format snapshot: per-run headline
// gauges (load counts, reuse hits, bytes) for the latest run of each
// (scheme, model), the latest run's counter series (resident bytes, cache
// size, queue depths) and server totals.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	runs := s.snapshotRuns()
	p := trace.NewPromWriter()
	p.Declare("pask_server_runs_total", "counter", "Runs executed and retained by this server.")
	p.Sample("pask_server_runs_total", float64(len(runs)))
	var loads, hits int
	latest := make(map[string]*runRecord, len(runs))
	for _, run := range runs {
		if run.rep == nil {
			continue
		}
		loads += run.rep.Loads
		hits += run.rep.ReuseHits
		latest[run.rep.Scheme+"/"+run.rep.Model] = run // later wins: runs are oldest-first
	}
	p.Declare("pask_server_loads_total", "counter", "Code objects loaded across all retained runs.")
	p.Sample("pask_server_loads_total", float64(loads))
	p.Declare("pask_server_reuse_hits_total", "counter", "Cache reuse hits across all retained runs.")
	p.Sample("pask_server_reuse_hits_total", float64(hits))
	s.mu.Lock()
	imgStore := s.images
	s.mu.Unlock()
	if imgStore != nil {
		st := imgStore.Stats()
		for _, m := range []struct {
			name string
			help string
			v    int
		}{
			{"pask_cacheimg_published_total", "Cache images atomically published to the store.", st.Published},
			{"pask_cacheimg_attach_ok_total", "Cache-image attaches that passed the validation ladder.", st.AttachOK},
			{"pask_cacheimg_rejected_profile_total", "Attaches rejected for a device-profile mismatch.", st.RejectedProfile},
			{"pask_cacheimg_quarantined_total", "Corrupt or misnamed images quarantined on attach.", st.Quarantined},
			{"pask_cacheimg_stale_total", "Attaches rejected for a stale store fingerprint.", st.Stale},
			{"pask_cacheimg_no_image_total", "Attaches that found no candidate image.", st.NoImage},
			{"pask_cacheimg_torn_cleaned_total", "Torn temp files swept at store open.", st.TornCleaned},
		} {
			p.Declare(m.name, "counter", m.help)
			p.Sample(m.name, float64(m.v))
		}
	}
	keys := make([]string, 0, len(latest))
	for k := range latest {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		trace.ReportMetrics(p, latest[k].rep)
	}
	if n := len(runs); n > 0 {
		runs[n-1].rec.AppendPrometheus(p)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.Flush(w)
}

// ServeRequest is the POST /v1/serve body.
type ServeRequest struct {
	Model    string `json:"model"`
	Scheme   string `json:"scheme,omitempty"`
	Device   string `json:"device,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	Requests int    `json:"requests,omitempty"` // default 20, max 10000

	// Faults is a fault-plan spec (transient=0.1,permanent=0.02,seed=7,...).
	Faults string `json:"faults,omitempty"`
	// Retries/DeadlineMs/ContinueOnError set the fault-tolerance policy.
	Retries         int     `json:"retries,omitempty"`
	DeadlineMs      float64 `json:"deadline_ms,omitempty"`
	ContinueOnError bool    `json:"continue_on_error,omitempty"`
}

// ServeResponse is the serve reply: the outcome of a short request trace
// served under a fault-tolerance policy, optionally against a fault plan.
type ServeResponse struct {
	Model    string `json:"model"`
	Scheme   string `json:"scheme"`
	Device   string `json:"device"`
	Batch    int    `json:"batch"`
	Requests int    `json:"requests"`

	Served         int            `json:"served"`
	Failed         int            `json:"failed"`
	Retries        int            `json:"retries"`
	Crashes        int            `json:"crashes"`
	Recovered      int            `json:"recovered"`
	DeadlineMisses int            `json:"deadline_misses"`
	DegradedLayers int            `json:"degraded_layers"`
	P50Ms          float64        `json:"p50_ms"`
	P99Ms          float64        `json:"p99_ms"`
	Failures       map[int]string `json:"failures,omitempty"`

	RunID    string `json:"run_id,omitempty"`
	TraceURL string `json:"trace_url,omitempty"`
}

// runServe executes one validated serve request, recording into rec.
func (s *Server) runServe(req ServeRequest, rec *trace.Recorder) (*ServeResponse, int, error) {
	scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	requests := req.Requests
	if requests == 0 {
		requests = 20
	}
	if requests < 1 || requests > 10000 {
		return nil, http.StatusBadRequest, fmt.Errorf("bad requests %d", requests)
	}
	if req.Retries < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("bad retries %d", req.Retries)
	}
	if req.DeadlineMs < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("bad deadline_ms %v", req.DeadlineMs)
	}

	pol := serving.Policy{Scheme: scheme, Rec: rec}
	var plan faults.Plan
	if req.Faults != "" {
		if plan, err = faults.ParsePlan(req.Faults); err != nil {
			return nil, http.StatusBadRequest, err
		}
		pol.Faults = faults.New(plan)
	}
	pol.FT.MaxRetries = req.Retries
	if req.DeadlineMs > 0 {
		pol.FT.Deadline = time.Duration(req.DeadlineMs * float64(time.Millisecond))
	}
	pol.FT.ContinueOnError = req.ContinueOnError

	ms, prof, batch, err := s.resolveModel(req.Model, req.Device, req.Batch)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	tr := serving.PoissonTrace(requests, 2*time.Millisecond, plan.Seed)
	stats, err := serving.ServeTrace(ms, pol, tr, 10)
	if err != nil {
		return nil, statusFromErr(err), err
	}
	resp := &ServeResponse{
		Model: req.Model, Scheme: string(scheme), Device: prof.Name, Batch: batch,
		Requests:       requests,
		Served:         len(stats.Latencies),
		Failed:         stats.Failed,
		Retries:        stats.Retries,
		Crashes:        stats.Crashes,
		Recovered:      stats.Recovered,
		DeadlineMisses: stats.DeadlineMisses,
		DegradedLayers: stats.DegradedLayers,
		P50Ms:          float64(stats.Percentile(0.5)) / float64(time.Millisecond),
		P99Ms:          float64(stats.Percentile(0.99)) / float64(time.Millisecond),
	}
	if len(stats.FailedRequests) > 0 {
		resp.Failures = make(map[int]string, len(stats.FailedRequests))
		for idx, ferr := range stats.FailedRequests {
			resp.Failures[idx] = ferr.Error()
		}
	}
	return resp, http.StatusOK, nil
}

// handleServeV1 runs a serving trace from a JSON body, recording its trace.
func (s *Server) handleServeV1(w http.ResponseWriter, r *http.Request) {
	var req ServeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rec := trace.New()
	resp, status, err := s.runServe(req, rec)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	resp.RunID = s.storeRun(rec, nil)
	resp.TraceURL = "/v1/runs/" + resp.RunID + "/trace"
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) setup(model string, batch int, prof device.Profile) (*experiments.ModelSetup, error) {
	key := fmt.Sprintf("%s/%d/%s", model, batch, prof.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ms, ok := s.setups[key]; ok {
		return ms, nil
	}
	ms, err := experiments.PrepareModel(model, batch, prof)
	if err != nil {
		return nil, err
	}
	s.setups[key] = ms
	return ms, nil
}

func toResponse(model, scheme, dev string, batch int, rep *metrics.Report) *ColdStartResponse {
	bd := make(map[string]float64, len(rep.Breakdown))
	for c, v := range rep.Breakdown {
		bd[string(c)] = float64(v) / float64(time.Millisecond)
	}
	return &ColdStartResponse{
		Model: model, Scheme: scheme, Device: dev, Batch: batch,
		TotalMs:      float64(rep.Total) / float64(time.Millisecond),
		Utilization:  rep.Utilization(),
		Loads:        rep.Loads,
		LoadedBytes:  rep.LoadedBytes,
		ReuseQueries: rep.ReuseQueries,
		ReuseHits:    rep.ReuseHits,
		SkippedLoads: rep.SkippedLoads,
		Milestone:    rep.Milestone,
		BreakdownMs:  bd,
	}
}
