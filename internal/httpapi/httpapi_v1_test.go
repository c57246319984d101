package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pask/internal/serving"
	"pask/internal/trace"
	"pask/internal/warmup"
)

// postJSON POSTs a JSON body and returns the response plus full body.
func postJSON(t *testing.T, srv *Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// getFull GETs a path and returns the response plus full body.
func getFull(t *testing.T, srv *Server, path string) (*http.Response, []byte) {
	t.Helper()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestV1ErrorEnvelope(t *testing.T) {
	srv := New()
	cases := []struct {
		body   string
		status int
		code   string
	}{
		{`{"model":"bert"}`, http.StatusBadRequest, "bad_request"},
		{`{}`, http.StatusBadRequest, "bad_request"},
		{`{"model":"alex","scheme":"Turbo"}`, http.StatusBadRequest, "bad_request"},
		{`{"model":"alex","batch":-3}`, http.StatusBadRequest, "bad_request"},
		{`not json`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv, "/v1/coldstart", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.status)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: body %q not an error envelope: %v", tc.body, body, err)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.body, env.Error.Code, tc.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.body)
		}
	}
}

func TestV1ColdStartRecordsTrace(t *testing.T) {
	srv := New()
	resp, body := postJSON(t, srv, "/v1/coldstart", `{"model":"alex","scheme":"PaSK"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cs ColdStartResponse
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.RunID == "" || cs.TraceURL == "" {
		t.Fatalf("missing run id / trace url: %+v", cs)
	}
	if cs.TotalMs <= 0 || cs.Loads <= 0 {
		t.Fatalf("implausible report: %+v", cs)
	}

	traceResp, traceBody := getFull(t, srv, cs.TraceURL)
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", traceResp.StatusCode)
	}
	sum, err := trace.ValidateChrome(traceBody)
	if err != nil {
		t.Fatalf("served trace invalid: %v", err)
	}
	if len(sum.Tracks) < 4 {
		t.Fatalf("served trace has tracks %v, want >= 4", sum.Tracks)
	}

	resp404, body404 := getFull(t, srv, "/v1/runs/run-999/trace")
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: status %d", resp404.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body404, &env); err != nil || env.Error.Code != "not_found" {
		t.Fatalf("unknown-run body %q, want not_found envelope", body404)
	}
}

func TestV1ServeEndpoint(t *testing.T) {
	srv := New()
	resp, body := postJSON(t, srv, "/v1/serve", `{"model":"alex","requests":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ServeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Served != 5 || sr.Failed != 0 {
		t.Fatalf("served %d / failed %d, want 5 / 0", sr.Served, sr.Failed)
	}
	if sr.RunID == "" || sr.TraceURL == "" {
		t.Fatalf("missing run id / trace url: %+v", sr)
	}
	traceResp, traceBody := getFull(t, srv, sr.TraceURL)
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", traceResp.StatusCode)
	}
	if _, err := trace.ValidateChrome(traceBody); err != nil {
		t.Fatalf("served trace invalid: %v", err)
	}
}

// TestV1MultitenantEndpoint checks that the generic route's models field
// picks the tenants of the shared-vs-isolated experiment, and that both arms
// still read an untouched store.
func TestV1MultitenantEndpoint(t *testing.T) {
	srv := New()
	resp, body := postJSON(t, srv, "/v1/experiments/multitenant", `{"quick":true,"models":["alex","res"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er struct {
		Result struct {
			Bench struct {
				Models                                                  []string
				FingerprintBefore, FingerprintBetween, FingerprintAfter uint32
			} `json:"bench"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	mt := er.Result.Bench
	if !reflect.DeepEqual(mt.Models, []string{"alex", "res"}) {
		t.Fatalf("tenants = %v, want [alex res]", mt.Models)
	}
	if mt.FingerprintBefore != mt.FingerprintBetween || mt.FingerprintBetween != mt.FingerprintAfter {
		t.Fatal("store mutated across arms")
	}
}

func TestV1WarmupProfileEndpoint(t *testing.T) {
	srv := New()
	// No profile recorded yet: 404 with the uniform envelope.
	resp, body := getFull(t, srv, "/v1/warmup/alex")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("before recording: status %d", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "not_found" {
		t.Fatalf("404 body %q, want not_found envelope", body)
	}

	// Record a profile, fetch it back as a decodable manifest.
	resp, body = postJSON(t, srv, "/v1/coldstart", `{"model":"alex","record_profile":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record run: %d %s", resp.StatusCode, body)
	}
	var cs ColdStartResponse
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	if !cs.ProfileRecorded {
		t.Fatalf("record run did not record a profile: %+v", cs)
	}
	resp, body = getFull(t, srv, "/v1/warmup/alex")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile fetch: status %d", resp.StatusCode)
	}
	man, err := warmup.Decode(body)
	if err != nil {
		t.Fatalf("served manifest does not decode: %v", err)
	}
	if man.Model != "alex" || len(man.Entries) == 0 {
		t.Fatalf("implausible manifest: %+v", man)
	}

	// A warm run replays the stored profile and reports the accounting.
	resp, body = postJSON(t, srv, "/v1/coldstart", `{"model":"alex","warm":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.WarmupEntries == 0 || cs.WarmupPrefetched == 0 {
		t.Fatalf("warm run did not replay: %+v", cs)
	}
	if cs.WarmupHits == 0 {
		t.Errorf("warm run replayed with no hits: %+v", cs)
	}
}

func TestV1RunTriggersRejectGet(t *testing.T) {
	srv := New()
	for _, path := range []string{"/v1/coldstart", "/v1/serve", "/v1/experiments/multitenant"} {
		resp, _ := getFull(t, srv, path+"?model=alex")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := New()
	// Before any run: the endpoint serves, with zero totals.
	resp, body := getFull(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(string(body), "pask_server_runs_total 0") {
		t.Fatalf("empty-server metrics missing zero run count:\n%s", body)
	}

	if resp, body := postJSON(t, srv, "/v1/coldstart", `{"model":"alex"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("coldstart: %d %s", resp.StatusCode, body)
	}
	_, body = getFull(t, srv, "/metrics")
	out := string(body)
	for _, want := range []string{
		"pask_server_runs_total 1",
		`pask_run_loads{scheme="PaSK",model="alex"}`,
		`pask_run_reuse_hits{scheme="PaSK",model="alex"}`,
		`pask_run_loaded_bytes{scheme="PaSK",model="alex"}`,
		"pask_hip_resident_bytes",
		"# TYPE pask_run_loads gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, out)
		}
	}
}

// TestV1OverloadEndpoint runs the overload experiment through the generic
// registry route: every device gets all three arms, and the brownout arms'
// recorded pressure lands in the served trace and on /metrics.
func TestV1OverloadEndpoint(t *testing.T) {
	srv := New()
	resp, body := postJSON(t, srv, "/v1/experiments/overload", `{"quick":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er struct {
		Result struct {
			Bench serving.OverloadBench `json:"bench"`
		} `json:"result"`
		TraceURL string `json:"trace_url"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	bench := er.Result.Bench
	if bench.Seed == 0 || len(bench.Devices) != 3 {
		t.Fatalf("seed %d, %d devices: %s", bench.Seed, len(bench.Devices), body)
	}
	for _, dev := range bench.Devices {
		byArm := map[string]bool{}
		for _, c := range dev.Cells {
			byArm[c.Arm] = true
			if c.Requests == 0 {
				t.Fatalf("%s cell %q has zero requests", dev.Device, c.Arm)
			}
		}
		if !byArm["none"] || !byArm["shed"] || !byArm["brownout"] {
			t.Fatalf("%s: missing arms: %v", dev.Device, byArm)
		}
	}
	traceResp, traceBody := getFull(t, srv, er.TraceURL)
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", traceResp.StatusCode)
	}
	if _, err := trace.ValidateChrome(traceBody); err != nil {
		t.Fatalf("overload trace invalid: %v", err)
	}
	if _, metrics := getFull(t, srv, "/metrics"); !strings.Contains(string(metrics), "pask_brownout_pressure") {
		t.Fatalf("/metrics lacks pask_brownout_pressure after an overload run:\n%s", metrics)
	}
}

func TestOverloadErrorMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{serving.ErrShed, http.StatusTooManyRequests, "shed"},
		{serving.ErrBreakerOpen, http.StatusServiceUnavailable, "breaker_open"},
	}
	for _, tc := range cases {
		if got := statusFromErr(tc.err); got != tc.status {
			t.Errorf("statusFromErr(%v) = %d, want %d", tc.err, got, tc.status)
		}
		if got := codeFromErr(tc.err, tc.status); got != tc.code {
			t.Errorf("codeFromErr(%v) = %q, want %q", tc.err, got, tc.code)
		}
	}
}
