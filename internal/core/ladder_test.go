package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/device"
	"pask/internal/graphx"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
	"pask/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// ladderSub is one recorded substitution, by instance key.
type ladderSub struct {
	Layer  string `json:"layer"`
	Want   string `json:"want"`
	Got    string `json:"got"`
	Forced bool   `json:"forced"`
}

// ladderSpan is one recovery span of a run.
type ladderSpan struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// ladderRun is everything TestDegradationLadderGolden pins about one run.
type ladderRun struct {
	Err                 string        `json:"err,omitempty"`
	End                 time.Duration `json:"end_ns"`
	Cache               CacheStats    `json:"cache"`
	CacheLen            int           `json:"cache_len"`
	Milestone           int           `json:"milestone"`
	SkippedLoads        int           `json:"skipped_loads"`
	SkippedTransforms   int           `json:"skipped_transforms"`
	LoadFailures        int           `json:"load_failures"`
	ForcedReuse         int           `json:"forced_reuse"`
	LadderFallbacks     int           `json:"ladder_fallbacks"`
	ElidedXformFailures int           `json:"elided_xform_failures"`
	PressureReuse       int           `json:"pressure_reuse"`
	Substitutions       []ladderSub   `json:"substitutions"`
	Recovery            []ladderSpan  `json:"recovery"`
}

// loadedTransform returns the first (by path) transform object a clean
// PaSK-R run of h's model loads: only such an object proves the elision
// path, since a transform dropped for a layout-agnostic substitute is never
// loaded. (A selective interleaved run loads none on this model: with
// dynamic layout tracking every planned transform is stale or dropped.)
func loadedTransform(t *testing.T, h *harness) string {
	t.Helper()
	var loaded []string
	err := h.faultRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		_, rerr := RunSequentialReuse(p, r, h.model, NewCache(SchemePaSKR, r.Lib), Options{})
		for i := range h.model.Instrs {
			if in := &h.model.Instrs[i]; in.Kind == graphx.KindTransform && r.RT.Loaded(in.XformPath) {
				loaded = append(loaded, in.XformPath)
			}
		}
		return rerr
	})
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if len(loaded) == 0 {
		t.Fatal("no transform object loaded on the clean run")
	}
	sort.Strings(loaded)
	return loaded[0]
}

// breakFeedNext breaks the object of h's first transform that only feeds
// the next primitive's preferred layout and returns that primitive's chosen
// instance. Preloaded, the instance runs as chosen, so the transform is
// flushed, fails to load and leaves a consumer that is not layout-agnostic.
func breakFeedNext(t *testing.T, h *harness) []miopen.Instance {
	t.Helper()
	for i := range h.model.Instrs[:len(h.model.Instrs)-1] {
		tr, next := &h.model.Instrs[i], &h.model.Instrs[i+1]
		if tr.Kind != graphx.KindTransform || !tr.XformForNext || next.Kind != graphx.KindPrimitive {
			continue
		}
		inst, err := next.Instance(h.reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, agnostic := inst.Sol.PreferredLayout(&next.Problem); agnostic {
			t.Fatalf("%s feeds a layout-agnostic instance %s", tr.XformPath, inst.Path())
		}
		breakObject(t, h.store, tr.XformPath)
		return []miopen.Instance{inst}
	}
	t.Fatal("model has no feed-next transform")
	return nil
}

// ladderEngine runs one engine of the degradation ladder on a cache.
type ladderEngine struct {
	name string
	// cache returns the cache the engine starts from: seeded with the
	// library's residents when seed is set, empty otherwise.
	cache func(lib *miopen.Library, seed bool) Cache
	run   func(p *sim.Proc, r *graphx.Runner, m *graphx.CompiledModel, c Cache, opts Options) (*Result, error)
}

// TestDegradationLadderGolden pins what each engine does when a code object
// fails to load: the Result counters, every substitution, every recovery
// span with its virtual times, and when the run ends. It crosses the
// selective interleaved pipeline, the PaSK-R sequential engine and the warm
// engine with three faults: every non-resident chosen object broken, one
// interchange-transform object broken, and that transform broken in a
// process with no residents, so its consumer finds no layout-agnostic
// instance in the cache. The transform fault also runs fail-fast. After a
// deliberate behaviour change, regenerate with
//
//	go test ./internal/core -run TestDegradationLadderGolden -update
//
// and review the diff.
func TestDegradationLadderGolden(t *testing.T) {
	categorical := func(lib *miopen.Library, seed bool) Cache {
		c := NewCategoricalCache()
		if seed {
			SeedResidents(c, lib)
		}
		return c
	}
	engines := []ladderEngine{
		{"interleaved", categorical, func(p *sim.Proc, r *graphx.Runner, m *graphx.CompiledModel, c Cache, opts Options) (*Result, error) {
			return RunInterleaved(p, r, m, c, true, opts)
		}},
		{"sequential", func(lib *miopen.Library, seed bool) Cache {
			c := NewNaiveCache()
			if seed {
				SeedResidents(c, lib)
			}
			return c
		}, RunSequentialReuse},
		{"warm", categorical, RunWarmReuse},
	}
	// Each case breaks objects in a fresh store and runs every engine on it,
	// in a process that opened the library's residents and seeded the cache
	// with them, or in one that has neither. A case may preload instances
	// before the run. The transform cases also run with NoTransformElision,
	// the only way the selective interleaved pipeline attempts to load that
	// transform on this model.
	breakChosen := func(t *testing.T, h *harness) []miopen.Instance {
		breakNonResidentChosen(t, h)
		return nil
	}
	breakXform := func(t *testing.T, h *harness) []miopen.Instance {
		breakObject(t, h.store, loadedTransform(t, h))
		return nil
	}
	noElision := Options{NoTransformElision: true}
	cases := []struct {
		name      string
		residents bool
		opts      Options
		apply     func(t *testing.T, h *harness) []miopen.Instance
	}{
		{"chosen", true, Options{}, breakChosen},
		{"chosen/no-residents", false, Options{}, breakChosen},
		{"transform", true, Options{}, breakXform},
		{"transform/no-elision", true, noElision, breakXform},
		{"transform/fail-fast", true, Options{NoDegradation: true, NoTransformElision: true}, breakXform},
		{"feed-next", true, Options{}, breakFeedNext},
		{"feed-next/no-residents", false, Options{}, breakFeedNext},
	}

	got := map[string]ladderRun{}
	for _, c := range cases {
		h := newHarness(t, "res", 1, graphx.CompileOptions{})
		preload := c.apply(t, h)
		for _, e := range engines {
			run := h.ladderRun(t, c.residents, preload, func(p *sim.Proc, r *graphx.Runner) (*Result, error) {
				return e.run(p, r, h.model, e.cache(r.Lib, c.residents), c.opts)
			})
			got[c.name+"/"+e.name] = run
		}
	}

	// The table must reach the paths it exists to pin, in every engine.
	for _, e := range engines {
		if r := got["chosen/no-residents/"+e.name]; r.LoadFailures == 0 || r.Err != "" {
			t.Errorf("%s: broken chosen objects: load failures %d, err %q; want recovered failures", e.name, r.LoadFailures, r.Err)
		}
		if r := got["transform/no-elision/"+e.name]; r.ElidedXformFailures == 0 || r.Err != "" {
			t.Errorf("%s: broken transform: elided %d, err %q; want it elided", e.name, r.ElidedXformFailures, r.Err)
		}
		if r := got["transform/fail-fast/"+e.name]; r.Err == "" {
			t.Errorf("%s: fail-fast run absorbed the broken transform", e.name)
		}
		r := got["feed-next/no-residents/"+e.name]
		if len(r.Recovery) == 0 || !strings.HasPrefix(r.Recovery[0].Name, "agnostic:") || r.Err != "" {
			t.Errorf("%s: broken feed-next transform: recovery %v, err %q; want an agnostic substitute", e.name, r.Recovery, r.Err)
		}
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", "ladder.json")
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
	if string(golden) != string(data) {
		t.Errorf("ladder runs differ from %s (regenerate with -update and review the diff):\n%s", path, data)
	}
}

// ladderRun runs fn in a fresh process, after opening the library's
// residents when residents is set and loading preload, and records the run.
func (h *harness) ladderRun(t *testing.T, residents bool, preload []miopen.Instance, fn func(p *sim.Proc, r *graphx.Runner) (*Result, error)) ladderRun {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), h.store, backend.HIP)
	rec := trace.New()
	tracer := metrics.NewForwardingTracer()
	tracer.SetObserver(rec)
	runner := h.newRunner(rt, tracer)
	var out ladderRun
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		if residents {
			if err := runner.Lib.LoadResidents(p); err != nil {
				t.Error(err)
				return
			}
		}
		for _, inst := range preload {
			if err := runner.Lib.EnsureLoaded(p, inst); err != nil {
				t.Error(err)
				return
			}
		}
		res, err := fn(p, runner)
		out.End = p.Now()
		if err != nil {
			out.Err = err.Error()
		}
		if res == nil {
			return
		}
		out.Cache, out.CacheLen, out.Milestone = res.Cache, res.CacheLen, res.Milestone
		out.SkippedLoads, out.SkippedTransforms = res.SkippedLoads, res.SkippedTransforms
		out.LoadFailures, out.ForcedReuse, out.LadderFallbacks = res.LoadFailures, res.ForcedReuse, res.LadderFallbacks
		out.ElidedXformFailures, out.PressureReuse = res.ElidedXformFailures, res.PressureReuse
		for _, s := range res.Substitutions {
			out.Substitutions = append(out.Substitutions, ladderSub{s.Layer, s.Want.Path(), s.Got.Path(), s.Forced})
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Spans() {
		if s.Cat == metrics.CatRecovery {
			out.Recovery = append(out.Recovery, ladderSpan{s.Name, s.Start, s.End})
		}
	}
	return out
}
