package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"pask"
	"pask/internal/httpapi"
)

// digests checks outputs against one committed golden file,
// <dir>/<workload>.json, a flat map from output key to SHA-256 (or, for
// store fingerprints, the fingerprint itself). In update mode it records
// every digest instead, for writing back with save.
type digests struct {
	mu       sync.Mutex
	path     string
	update   bool
	want     map[string]string
	got      map[string]string
	problems []string
}

func loadDigests(dir, name string, update bool) (*digests, error) {
	d := &digests{path: filepath.Join(dir, name+".json"), update: update, got: map[string]string{}}
	if update {
		return d, nil
	}
	data, err := os.ReadFile(d.path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	if err := json.Unmarshal(data, &d.want); err != nil {
		return nil, fmt.Errorf("golden %s: %w", d.path, err)
	}
	return d, nil
}

// check compares one output's digest and reports whether it matched.
func (d *digests) check(key, got string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.update {
		if prev, ok := d.got[key]; ok && prev != got {
			d.problems = append(d.problems, fmt.Sprintf("%s: two different outputs in one run", key))
			return false
		}
		d.got[key] = got
		return true
	}
	want, ok := d.want[key]
	if ok && want == got {
		return true
	}
	if len(d.problems) < 20 {
		if ok {
			d.problems = append(d.problems, fmt.Sprintf("%s: digest %.12s, golden %.12s", key, got, want))
		} else {
			d.problems = append(d.problems, fmt.Sprintf("%s: no golden digest", key))
		}
	}
	return false
}

func (d *digests) fail(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.problems = append(d.problems, fmt.Sprintf(format, args...))
}

func (d *digests) issues() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.problems)
}

// save writes the recorded digests back as the golden file.
func (d *digests) save() error {
	data, err := json.MarshalIndent(d.got, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(d.path, append(data, '\n'), 0o644)
}

// goldens opens golden files on first use. Only the running workload's own
// file is recorded in update mode; every other file is checked.
type goldens struct {
	dir, own string
	update   bool
	files    map[string]*digests
}

func newGoldens(dir string, update bool, workload string) *goldens {
	return &goldens{dir: dir, own: workload, update: update, files: map[string]*digests{}}
}

func (g *goldens) get(name string) (*digests, error) {
	if d, ok := g.files[name]; ok {
		return d, nil
	}
	d, err := loadDigests(g.dir, name, g.update && name == g.own)
	if err != nil {
		return nil, err
	}
	g.files[name] = d
	return d, nil
}

func (g *goldens) issues() []string {
	var out []string
	for _, d := range g.files {
		out = append(out, d.issues()...)
	}
	return out
}

func (g *goldens) save() error {
	d, err := g.get(g.own)
	if err != nil {
		return err
	}
	return d.save()
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// shaJSON digests v's JSON encoding; map keys encode sorted, so equal values
// give equal digests.
func shaJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value digested here is plain data
	}
	return sha(b)
}

// canonReport is the virtual-time content of one cold-start report, in the
// shape the HTTP API returns it, so that reports from pask.RunScheme and
// from POST /v1/coldstart digest alike.
type canonReport struct {
	Model, Scheme, Device string
	Batch                 int
	TotalMs               float64
	Utilization           float64
	Loads                 int
	LoadedBytes           int64
	ReuseQueries          int
	ReuseHits             int
	SkippedLoads          int
	Milestone             int
	BreakdownMs           map[string]float64
}

func reportKey(model, dev, scheme string) string { return "report/" + model + "/" + dev + "/" + scheme }

func storeKey(model, dev string) string { return "store/" + model + "/" + dev }

func breakdownMs[K ~string](bd map[K]time.Duration) map[string]float64 {
	out := make(map[string]float64, len(bd))
	for k, v := range bd {
		out[string(k)] = float64(v) / float64(time.Millisecond)
	}
	return out
}

func canonFromPublic(dev string, r *pask.Report) canonReport {
	return canonReport{
		Model: r.Model, Scheme: string(r.Scheme), Device: dev, Batch: r.Batch,
		TotalMs: float64(r.Total) / float64(time.Millisecond), Utilization: r.Utilization(),
		Loads: r.Loads, LoadedBytes: r.LoadedBytes, ReuseQueries: r.ReuseQueries, ReuseHits: r.ReuseHits,
		SkippedLoads: r.SkippedLoads, Milestone: r.Milestone, BreakdownMs: breakdownMs(r.Breakdown),
	}
}

func canonFromHTTP(r *httpapi.ColdStartResponse) canonReport {
	return canonReport{
		Model: r.Model, Scheme: r.Scheme, Device: r.Device, Batch: r.Batch,
		TotalMs: r.TotalMs, Utilization: r.Utilization,
		Loads: r.Loads, LoadedBytes: r.LoadedBytes, ReuseQueries: r.ReuseQueries, ReuseHits: r.ReuseHits,
		SkippedLoads: r.SkippedLoads, Milestone: r.Milestone, BreakdownMs: r.BreakdownMs,
	}
}
