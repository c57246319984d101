package httpapi

import (
	"encoding/json"
	"net/http"
	"testing"

	"pask/internal/experiments"
)

// TestExperimentsListV1 checks GET /v1/experiments mirrors the registry.
func TestExperimentsListV1(t *testing.T) {
	srv := New()
	resp, data := getFull(t, srv, "/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var infos []ExperimentInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(experiments.All()) {
		t.Fatalf("listed %d experiments, registry has %d", len(infos), len(experiments.All()))
	}
	byName := make(map[string]ExperimentInfo, len(infos))
	for _, in := range infos {
		byName[in.Name] = in
	}
	for _, name := range []string{"predictive", "overload", "multitenant"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("experiment %q missing from /v1/experiments", name)
		}
	}
	if !byName["predictive"].Bench {
		t.Error("predictive should advertise a bench payload")
	}
}

// TestExperimentRunV1 drives the generic registry endpoint for the three
// experiments the API must serve at minimum, checking the versioned
// envelope and the stored trace.
func TestExperimentRunV1(t *testing.T) {
	srv := New()
	for _, name := range []string{"multitenant", "overload", "predictive"} {
		resp, data := postJSON(t, srv, "/v1/experiments/"+name, `{"quick": true}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		var er ExperimentResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if er.Schema != experiments.EnvelopeSchema || er.Experiment != name {
			t.Errorf("%s: envelope {schema:%d, experiment:%q}, want {%d, %q}",
				name, er.Schema, er.Experiment, experiments.EnvelopeSchema, name)
		}
		if er.Result == nil || len(er.Result.Tables) == 0 {
			t.Errorf("%s: no tables in result", name)
			continue
		}
		if er.RunID == "" || er.TraceURL == "" {
			t.Errorf("%s: missing run handle: %+v", name, er)
			continue
		}
		tr, body := getFull(t, srv, er.TraceURL)
		if tr.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("%s: trace fetch status %d, %d bytes", name, tr.StatusCode, len(body))
		}
	}
}

// TestExperimentRunV1Predictive pins the predictive experiment's bench
// payload shape through the generic endpoint: three devices, three arms.
func TestExperimentRunV1Predictive(t *testing.T) {
	srv := New()
	resp, data := postJSON(t, srv, "/v1/experiments/predictive", `{"quick": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er struct {
		Result struct {
			Bench struct {
				Experiment string `json:"experiment"`
				Devices    []struct {
					Device string `json:"device"`
					Cells  []struct {
						Arm string `json:"arm"`
					} `json:"cells"`
				} `json:"devices"`
			} `json:"bench"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Result.Bench.Experiment != "predictive" || len(er.Result.Bench.Devices) != 3 {
		t.Fatalf("bench: experiment %q, %d devices", er.Result.Bench.Experiment, len(er.Result.Bench.Devices))
	}
	for _, dev := range er.Result.Bench.Devices {
		if len(dev.Cells) != 3 {
			t.Errorf("%s: %d cells, want 3 arms", dev.Device, len(dev.Cells))
		}
	}
}

// TestExperimentRunV1Errors covers the endpoint's error envelope.
func TestExperimentRunV1Errors(t *testing.T) {
	srv := New()
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/experiments/nosuch", `{}`, http.StatusNotFound},
		{"/v1/experiments/predictive", `{"models": ["bert"]}`, http.StatusBadRequest},
		{"/v1/experiments/predictive", `{"batches": [0]}`, http.StatusBadRequest},
		{"/v1/experiments/predictive", `not json`, http.StatusBadRequest},
		{"/v1/experiments/multitenant", `{"models": ["bert"]}`, http.StatusBadRequest},
		{"/v1/experiments/overload", `{"batches": [0]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, data := postJSON(t, srv, c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("POST %s %q: status %d, want %d (%s)", c.path, c.body, resp.StatusCode, c.status, data)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" {
			t.Errorf("POST %s: error envelope missing: %s", c.path, data)
		}
	}
}
