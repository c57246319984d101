package serving

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pask/internal/core"
)

// schemeServe is one pinned serving run: the per-request latencies and the
// cold-start and background-load counts.
type schemeServe struct {
	Latencies  []time.Duration `json:"latencies_ns"`
	ColdStarts int             `json:"cold_starts"`
	BGLoads    int             `json:"bg_loads"`
}

// TestSchemeServeGolden pins a short ServeTrace per scheme, with and
// without background loading, on isolated instances and on a shared-GPU
// fleet. Evicting every third request repeats the cold path, so each run
// covers cold starts, warm requests and (for the reusing schemes) the
// background loads between them. After a deliberate behaviour change,
// regenerate with
//
//	go test ./internal/serving -run TestSchemeServeGolden -update
func TestSchemeServeGolden(t *testing.T) {
	ms := setup(t, "res")
	shared := setupSharedModels(t, "res", "alex")
	trace := PoissonTrace(6, 2*time.Millisecond, 3)
	mixed := InterleavedTrace([]string{"res", "alex"}, 3, 2*time.Millisecond)
	got := map[string]schemeServe{}
	for _, sch := range core.Schemes() {
		for _, bg := range []bool{false, true} {
			pol := Policy{Scheme: sch, BackgroundLoad: bg}
			stats, err := ServeTrace(ms, pol, trace, 3)
			if err != nil {
				t.Fatalf("%s bg=%v: %v", sch, bg, err)
			}
			key := string(sch)
			if bg {
				key += "/bg"
			}
			got[key] = schemeServe{stats.Latencies, stats.ColdStarts, stats.BGLoads}
		}
		fs, err := ServeFleetModels(shared, "res", FleetConfig{Policy: Policy{Scheme: sch}, KeepAlive: time.Minute, Shared: true}, mixed)
		if err != nil {
			t.Fatalf("%s shared: %v", sch, err)
		}
		got[string(sch)+"/shared"] = schemeServe{fs.Latencies, fs.ColdStarts, fs.BGLoads}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", "schemes_serve.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if line, gotLine, wantLine := firstLineDiff(data, golden); line > 0 {
		t.Errorf("serving drifted from %s at line %d:\n got: %s\nwant: %s", path, line, gotLine, wantLine)
	}
}
