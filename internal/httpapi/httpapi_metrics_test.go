package httpapi

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// TestMetricsExpositionGolden pins GET /metrics byte for byte after a fixed
// set of requests: two models under two schemes (one run recording a warmup
// profile) and a cache-image build, so the per-run gauges, the latest run's
// recorder series and the pask_cacheimg_* block all appear. Regenerate with
// go test ./internal/httpapi -run TestMetricsExpositionGolden -update.
func TestMetricsExpositionGolden(t *testing.T) {
	srv := New()
	for _, body := range []string{
		`{"model":"alex","scheme":"Baseline"}`,
		`{"model":"alex","scheme":"PaSK","record_profile":true}`,
		`{"model":"res","scheme":"Baseline"}`,
		`{"model":"res","scheme":"PaSK"}`,
	} {
		if resp, out := postJSON(t, srv, "/v1/coldstart", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("coldstart %s: %d %s", body, resp.StatusCode, out)
		}
	}
	if resp, out := postJSON(t, srv, "/v1/cacheimages", `{"model":"alex"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-image build: %d %s", resp.StatusCode, out)
	}
	resp, got := getFull(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/metrics drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
