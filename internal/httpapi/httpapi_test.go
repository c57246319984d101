package httpapi

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRouteSurface pins the API's one generation: every kept route is
// registered for its method, and the removed unversioned aliases and bespoke
// experiment routes fall through to the mux's 404.
func TestRouteSurface(t *testing.T) {
	srv := New()
	// Record a run with a warmup profile so the parameterized GETs resolve.
	if resp, body := postJSON(t, srv, "/v1/coldstart", `{"model":"alex","record_profile":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run: %d %s", resp.StatusCode, body)
	}
	cases := []struct {
		method, path, body string
		removed            bool
	}{
		{"GET", "/v1/models", "", false},
		{"GET", "/v1/devices", "", false},
		{"GET", "/v1/schemes", "", false},
		{"GET", "/v1/experiments", "", false},
		{"GET", "/v1/runs/run-1/trace", "", false},
		{"GET", "/v1/warmup/alex", "", false},
		{"GET", "/v1/cacheimages", "", false},
		{"GET", "/v1/health", "", false},
		{"GET", "/metrics", "", false},
		// Bodies that fail validation reach the handler without running.
		{"POST", "/v1/coldstart", `{}`, false},
		{"POST", "/v1/serve", `{}`, false},
		{"POST", "/v1/experiments/multitenant", `not json`, false},
		{"POST", "/v1/cacheimages", `{}`, false},

		{"GET", "/models", "", true},
		{"GET", "/devices", "", true},
		{"GET", "/schemes", "", true},
		{"GET", "/coldstart?model=alex", "", true},
		{"GET", "/serve?model=alex", "", true},
		{"GET", "/multitenant", "", true},
		{"POST", "/v1/multitenant", `{}`, true},
		{"POST", "/v1/overload", `{"model":"alex"}`, true},
	}
	for _, c := range cases {
		var resp *http.Response
		if c.method == "POST" {
			resp, _ = postJSON(t, srv, c.path, c.body)
		} else {
			resp, _ = getFull(t, srv, c.path)
		}
		switch {
		case c.removed && resp.StatusCode != http.StatusNotFound:
			t.Errorf("removed %s %s: status %d, want 404", c.method, c.path, resp.StatusCode)
		case !c.removed && (resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed):
			t.Errorf("kept %s %s: status %d, route not registered", c.method, c.path, resp.StatusCode)
		}
	}
}

func TestModelsEndpoint(t *testing.T) {
	srv := New()
	resp, body := getFull(t, srv, "/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var models []ModelInfo
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	if len(models) != 12 {
		t.Fatalf("got %d models", len(models))
	}
}

func TestDevicesAndSchemesEndpoints(t *testing.T) {
	srv := New()
	_, body := getFull(t, srv, "/v1/devices")
	var devs []string
	if err := json.Unmarshal(body, &devs); err != nil {
		t.Fatal(err)
	}
	if len(devs) != 3 {
		t.Fatalf("devices = %v", devs)
	}
	_, body = getFull(t, srv, "/v1/schemes")
	var schemes []string
	if err := json.Unmarshal(body, &schemes); err != nil {
		t.Fatal(err)
	}
	if len(schemes) != 6 {
		t.Fatalf("schemes = %v", schemes)
	}
}

func TestColdStartEndpoint(t *testing.T) {
	srv := New()
	resp, body := postJSON(t, srv, "/v1/coldstart", `{"model":"alex","scheme":"PaSK","compare":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ColdStartResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TotalMs <= 0 || out.SpeedupVsBase <= 1 {
		t.Fatalf("response implausible: %+v", out)
	}
	if out.ReuseHits == 0 || out.Milestone == 0 {
		t.Fatalf("PASK statistics missing: %+v", out)
	}
	var sum float64
	for _, v := range out.BreakdownMs {
		sum += v
	}
	if sum < out.TotalMs*0.999 || sum > out.TotalMs*1.001 {
		t.Fatalf("breakdown (%v) does not sum to total (%v)", sum, out.TotalMs)
	}
}

func TestColdStartDefaultsAndCache(t *testing.T) {
	srv := New()
	var out [2]ColdStartResponse
	for i := range out {
		resp, body := postJSON(t, srv, "/v1/coldstart", `{"model":"alex"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out[i]); err != nil {
			t.Fatal(err)
		}
		if out[i].RunID == "" {
			t.Fatalf("run %d has no run id", i)
		}
		out[i].RunID, out[i].TraceURL = "", ""
	}
	// The second call reuses the cached setup and must be identical
	// (deterministic virtual time) apart from its run handle.
	if !reflect.DeepEqual(out[0], out[1]) {
		t.Fatalf("repeated identical requests differ:\n%+v\n%+v", out[0], out[1])
	}
}

func TestServeEndpoint(t *testing.T) {
	srv := New()
	resp, body := postJSON(t, srv, "/v1/serve", `{"model":"alex","requests":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ServeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Served != 5 || out.Failed != 0 || out.P50Ms <= 0 || out.P99Ms < out.P50Ms {
		t.Fatalf("response implausible: %+v", out)
	}
}

func TestServeFaultedResilient(t *testing.T) {
	srv := New()
	resp, body := postJSON(t, srv, "/v1/serve",
		`{"model":"alex","requests":10,"retries":2,"continue_on_error":true,"faults":"transient=0.2,seed=4"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ServeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Served+out.Failed != 10 {
		t.Fatalf("accounting broken: %+v", out)
	}
}

// TestServeStatusMapping checks that typed serving failures pick the right
// HTTP status and envelope code instead of a blanket 500.
func TestServeStatusMapping(t *testing.T) {
	srv := New()
	cases := []struct {
		body   string
		status int
		code   string
	}{
		// A microsecond-scale deadline no request can meet: gateway timeout.
		{`{"model":"alex","requests":3,"deadline_ms":0.001}`, http.StatusGatewayTimeout, "deadline_exceeded"},
		// Every non-protected object corrupt under a fail-fast Baseline with
		// retries but no ladder: the instance crashes, service unavailable.
		{`{"model":"alex","requests":3,"scheme":"Baseline","retries":1,"faults":"permanent=1,seed=1"}`,
			http.StatusServiceUnavailable, "instance_crashed"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, srv, "/v1/serve", c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.body, resp.StatusCode, c.status, body)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != c.code {
			t.Errorf("%s: body %s, want code %q", c.body, body, c.code)
		}
	}
}

func TestServeValidation(t *testing.T) {
	srv := New()
	for _, body := range []string{
		`{}`,                                      // missing model
		`{"model":"alex","requests":-1}`,          // bad requests
		`{"model":"alex","requests":10001}`,       // requests over the cap
		`{"model":"alex","scheme":"Turbo"}`,       // unknown scheme
		`{"model":"alex","device":"H100"}`,        // unknown device
		`{"model":"alex","retries":-1}`,           // bad retries
		`{"model":"alex","deadline_ms":-1}`,       // bad deadline
		`{"model":"alex","faults":"transient=2"}`, // bad rate
		`{"model":"alex","faults":"warp=0.5"}`,    // unknown key
	} {
		resp, data := postJSON(t, srv, "/v1/serve", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, resp.StatusCode, data)
		}
	}
}

// TestServeRejectsHostFaultKeys: a serve request drives one instance on one
// GPU, so the cache-image and host-level fault keys are not part of its
// grammar and fail as unknown keys with 400.
func TestServeRejectsHostFaultKeys(t *testing.T) {
	srv := New()
	for _, spec := range []string{
		"img_corrupt=0.1", "img_truncate=0.1", "img_kill=0.1",
		"gpu_kill_ms=5", "gpu_kill=0", "gpu_kill_rate=0.1", "gpu_kill_from_ms=1", "gpu_kill_until_ms=9",
		"degrade_factor=2", "degrade_transient=0.1", "degrade_from_ms=1", "degrade_until_ms=9", "degrade_gpu=0",
		"link_flap_from_ms=1", "link_flap_until_ms=9", "link_flap_gpu=0", "link_flap_stall_ms=1",
	} {
		resp, data := postJSON(t, srv, "/v1/serve", `{"model":"alex","faults":"`+spec+`"}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown key") {
			t.Errorf("faults %q: status %d, want 400 naming an unknown key: %s", spec, resp.StatusCode, data)
		}
	}
}

// TestMultitenantEndpoint drives the shared-vs-isolated experiment through
// the generic registry route and checks its acceptance properties on the
// bench payload.
func TestMultitenantEndpoint(t *testing.T) {
	srv := New()
	resp, body := postJSON(t, srv, "/v1/experiments/multitenant", `{"quick":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	type arm struct {
		ModuleLoads int
		ColdByModel map[string][]time.Duration
		TenantLoads []struct{ Tenant string }
	}
	var er struct {
		Result struct {
			Bench struct {
				Models                                                  []string
				Isolated, Shared                                        arm
				FingerprintBefore, FingerprintBetween, FingerprintAfter uint32
			} `json:"bench"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	mt := er.Result.Bench
	if len(mt.Models) != 2 {
		t.Fatalf("tenants = %v", mt.Models)
	}
	if mt.FingerprintBefore != mt.FingerprintBetween || mt.FingerprintBetween != mt.FingerprintAfter {
		t.Fatal("store mutated across arms")
	}
	if mt.Shared.ModuleLoads >= mt.Isolated.ModuleLoads {
		t.Fatalf("shared loads %d not below isolated %d", mt.Shared.ModuleLoads, mt.Isolated.ModuleLoads)
	}
	second := mt.Models[1]
	iso, sh := mt.Isolated.ColdByModel[second], mt.Shared.ColdByModel[second]
	if len(iso) == 0 || len(sh) == 0 || sh[0] >= iso[0] {
		t.Fatalf("second tenant %s cold start not improved: shared %v vs isolated %v", second, sh, iso)
	}
	if len(mt.Shared.TenantLoads) == 0 {
		t.Fatal("no per-tenant load attribution")
	}
}

// TestColdStartValidation covers the coldstart rejections TestV1ErrorEnvelope
// does not: an unknown device and a mistyped field.
func TestColdStartValidation(t *testing.T) {
	srv := New()
	for _, body := range []string{
		`{"model":"alex","device":"H100"}`,  // unknown device
		`{"model":"alex","batch":"banana"}`, // non-numeric batch
	} {
		resp, data := postJSON(t, srv, "/v1/coldstart", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, resp.StatusCode, data)
		}
	}
}
