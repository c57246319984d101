package httpapi

import (
	"fmt"
	"net/http"

	"pask/internal/experiments"
	"pask/internal/onnx/zoo"
	"pask/internal/serving"
	"pask/internal/trace"
)

// ExperimentInfo is one GET /v1/experiments menu entry.
type ExperimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	InAll       bool   `json:"in_all"`
	Bench       bool   `json:"bench"`
}

// handleExperimentsList serves the registered experiment menu.
func (s *Server) handleExperimentsList(w http.ResponseWriter, r *http.Request) {
	out := make([]ExperimentInfo, 0)
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{
			Name: e.Name, Description: e.Description, InAll: e.InAll, Bench: e.Bench,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// ExperimentRequest is the POST /v1/experiments/{name} body. All fields
// are optional; an empty (or absent) body runs the experiment with its
// defaults at full size.
type ExperimentRequest struct {
	// Quick shrinks the experiment to its CI smoke size.
	Quick bool `json:"quick,omitempty"`
	// Models restricts the model selection where the experiment honors it.
	Models []string `json:"models,omitempty"`
	// Batches restricts the batch sweep where the experiment honors it.
	Batches []int `json:"batches,omitempty"`
}

// ExperimentResponse is the versioned result envelope ({"schema": 1,
// "experiment": ..., "result": ...} — the same shape paskbench -out
// writes) plus the run's trace handle.
type ExperimentResponse struct {
	Schema     int                 `json:"schema"`
	Experiment string              `json:"experiment"`
	Result     *experiments.Result `json:"result"`

	RunID    string `json:"run_id,omitempty"`
	TraceURL string `json:"trace_url,omitempty"`
}

// handleExperimentRunV1 dispatches any registered experiment by name with
// the uniform options. The run's timeline is recorded and retrievable at the
// returned trace URL.
func (s *Server) handleExperimentRunV1(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := experiments.Lookup(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q (GET /v1/experiments lists the menu)", name))
		return
	}
	var req ExperimentRequest
	if r.ContentLength != 0 {
		if !decodeBody(w, r, &req) {
			return
		}
	}
	known := make(map[string]bool)
	for _, spec := range zoo.Models() {
		known[spec.Abbr] = true
	}
	for _, m := range req.Models {
		if !known[m] {
			badRequest(w, "unknown model %q", m)
			return
		}
	}
	for _, b := range req.Batches {
		if b < 1 {
			badRequest(w, "bad batch %d", b)
			return
		}
	}
	rec := trace.New()
	res, err := e.Run(experiments.Options{
		Quick: req.Quick, Trace: rec, Models: req.Models, Batches: req.Batches,
	})
	if err != nil {
		writeErr(w, statusFromErr(err), err)
		return
	}
	if fb, ok := res.Bench.(*serving.FailoverBench); ok {
		s.storeHealth(fb)
	}
	resp := &ExperimentResponse{
		Schema: experiments.EnvelopeSchema, Experiment: e.Name, Result: res,
	}
	resp.RunID = s.storeRun(rec, nil)
	resp.TraceURL = "/v1/runs/" + resp.RunID + "/trace"
	writeJSON(w, http.StatusOK, resp)
}
