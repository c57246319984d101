package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// TestSchemeGoldens pins the full metrics.Report of every scheme's cold
// start through RunSchemeOn, the path pask.RunScheme, paskrun and
// POST /v1/coldstart share: res and swin at fp32 with no options, with
// BlasScope and under severe static pressure, plus res at fp16 with
// PrecisionPreference. Options a scheme ignores must leave its report
// unchanged, so every (setup, options) cell covers all six schemes. After a
// deliberate behaviour change, regenerate with
//
//	go test ./internal/experiments -run TestSchemeGoldens -update
//
// and review the diff.
func TestSchemeGoldens(t *testing.T) {
	type cell struct {
		name string
		ms   *ModelSetup
		opts core.Options
	}
	var cells []cell
	for _, abbr := range []string{"res", "swin"} {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells,
			cell{abbr + "/f32/none", ms, core.Options{}},
			cell{abbr + "/f32/blas-scope", ms, core.Options{BlasScope: true}},
			cell{abbr + "/f32/pressure-severe", ms, core.Options{Pressure: core.StaticPressure(core.PressureSevere)}})
	}
	f16, err := PrepareModelTyped("res", 1, device.MI100(), tensor.F16)
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{"res/f16/precision-preference", f16, core.Options{PrecisionPreference: true}})

	got := map[string]*metrics.Report{}
	for _, c := range cells {
		for _, sch := range core.Schemes() {
			wr, err := c.ms.RunSchemeOn(c.ms.NewProcess(), sch, c.opts, nil, nil, false)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, sch, err)
			}
			got[c.name+"/"+string(sch)] = wr.Rep
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", "schemes.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(data) != string(golden) {
		var want map[string]*metrics.Report
		if err := json.Unmarshal(golden, &want); err != nil {
			t.Fatal(err)
		}
		for key, rep := range got {
			g, _ := json.Marshal(rep)
			w, _ := json.Marshal(want[key])
			if string(g) != string(w) {
				t.Errorf("%s drifted from %s:\n got: %s\nwant: %s", key, path, g, w)
			}
		}
		if len(want) != len(got) {
			t.Errorf("%s holds %d reports, the run produced %d", path, len(want), len(got))
		}
	}
}
