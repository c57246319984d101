package experiments

import (
	"fmt"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/graphx"
	"pask/internal/miopen"
	"pask/internal/onnx/zoo"
	"pask/internal/sim"
)

// Design-choice ablations beyond the paper's PaSK-I / PaSK-R (Fig 8): each
// toggles one mechanism of this implementation and measures its
// contribution to the PaSK cold start.

// AblationResult is one model's cold-start times under the toggles.
type AblationResult struct {
	PaSK          float64 // ms, full design
	NoElision     float64 // ms, without dynamic transform elision
	NoEager       float64 // ms, selective from the first layer (no milestone phase)
	NoSeed        float64 // ms, cache not seeded with resident kernels
	FusedBaseline float64 // ms, Baseline over a conv+relu-fused plan
	PlainBaseline float64 // ms, Baseline over the default plan
}

// Ablations measures the design toggles for each model and renders a table
// normalized to full PaSK (values < 1 mean the ablated variant is slower).
func Ablations(models []string) (*Table, map[string]*AblationResult, error) {
	res := map[string]*AblationResult{}
	tbl := &Table{
		ID:    "Ablations",
		Title: "Design-choice ablations, performance normalized to full PaSK (MI100, batch 1)",
		Headers: []string{"model", "no-elision", "no-eager-phase", "no-cache-seed",
			"baseline", "baseline+fusion"},
	}
	for _, abbr := range models {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			return nil, nil, err
		}
		r := &AblationResult{}
		run := func(opts core.Options, seed bool) (float64, error) {
			return ms.runPaSKVariant(opts, seed)
		}
		if r.PaSK, err = run(core.Options{}, true); err != nil {
			return nil, nil, err
		}
		if r.NoElision, err = run(core.Options{NoTransformElision: true}, true); err != nil {
			return nil, nil, err
		}
		if r.NoEager, err = run(core.Options{NoEagerPhase: true}, true); err != nil {
			return nil, nil, err
		}
		if r.NoSeed, err = run(core.Options{}, false); err != nil {
			return nil, nil, err
		}
		base, _, err := ms.RunScheme(core.SchemeBaseline, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		r.PlainBaseline = float64(base.Total) / 1e6

		fusedMS, err := prepareFused(abbr, ms)
		if err != nil {
			return nil, nil, err
		}
		fb, _, err := fusedMS.RunScheme(core.SchemeBaseline, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		r.FusedBaseline = float64(fb.Total) / 1e6

		res[abbr] = r
		tbl.Rows = append(tbl.Rows, []string{abbr,
			f2(r.PaSK / r.NoElision),
			f2(r.PaSK / r.NoEager),
			f2(r.PaSK / r.NoSeed),
			f2(r.PaSK / r.PlainBaseline),
			f2(r.PaSK / r.FusedBaseline),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"no-cache-seed disables resident-kernel seeding (reuse must bootstrap from loads)",
		"baseline+fusion fuses conv+relu pairs offline (fewer activation objects to load)",
		"values > 1 for no-eager-phase show the milestone's unconditional loads cost time when the cache is pre-seeded; the milestone matters exactly when the cache starts empty (the paper's setting, cf. no-cache-seed)")
	return tbl, res, nil
}

// runPaSKVariant runs PaSK with the given options; seed controls resident
// seeding of the categorical cache. Returns the cold-start time in ms.
func (ms *ModelSetup) runPaSKVariant(opts core.Options, seed bool) (float64, error) {
	pr := ms.NewProcess()
	var total float64
	err := pr.Main(func(p *sim.Proc) error {
		var cache core.Cache = core.NewCategoricalCache()
		if seed {
			cache = core.NewCache(core.SchemePaSK, pr.Lib)
		}
		t0 := p.Now()
		if _, err := core.Run(p, pr.Runner, ms.Model, core.SchemePaSK, cache, opts); err != nil {
			return err
		}
		total = float64(p.Now()-t0) / 1e6
		return nil
	})
	return total, err
}

// prepareFused compiles the model with the conv+activation fusion pass and
// materializes into the existing store.
func prepareFused(abbr string, base *ModelSetup) (*ModelSetup, error) {
	spec, err := zoo.ByAbbr(abbr)
	if err != nil {
		return nil, err
	}
	objs := base.Store.Batch()
	m, err := compileModel(objs, miopen.NewPerfDB(base.Reg), base.BlasReg, spec, base.Batch, base.Model.DType, graphx.CompileOptions{FuseConvActivation: true})
	if err != nil {
		return nil, err
	}
	m.Name = m.Name + "+fused"
	if err := objs.Put(); err != nil {
		return nil, fmt.Errorf("experiments: materialize %s: %w", m.Name, err)
	}
	clone := *base
	clone.Model = m
	clone.Uniform = m
	return &clone, nil
}

// CrossModelResult measures §II's multi-tenant implication: a process that
// already served model A holds loaded kernels that PASK recycles when model
// B cold-starts in the same process.
type CrossModelResult struct {
	FreshMs  float64 // model B cold start in a fresh process
	SharedMs float64 // model B cold start in the process warmed by model A
	Hits     int     // reuse hits during B's shared-process start
}

// CrossModelReuse serves model A cold, then model B in the same process
// (shared hip registry and PASK cache), and compares B's start against a
// fresh process.
func CrossModelReuse(a, b string, prof device.Profile) (*CrossModelResult, error) {
	setups, err := PrepareModelsShared([]string{a, b}, 1, prof)
	if err != nil {
		return nil, err
	}
	msA, msB := setups[a], setups[b]

	// Fresh process: B alone.
	fresh, err := msB.runPaSKVariant(core.Options{}, true)
	if err != nil {
		return nil, err
	}

	// Shared process: A first, then B with the same runner and cache.
	pr := msB.NewProcess()
	out := &CrossModelResult{FreshMs: fresh}
	err = pr.Main(func(p *sim.Proc) error {
		cache := core.NewCache(core.SchemePaSK, pr.Lib)
		if _, err := core.Run(p, pr.Runner, msA.Model, core.SchemePaSK, cache, core.Options{}); err != nil {
			return err
		}
		t0 := p.Now()
		res, err := core.Run(p, pr.Runner, msB.Model, core.SchemePaSK, cache, core.Options{})
		if err != nil {
			return err
		}
		out.SharedMs = float64(p.Now()-t0) / 1e6
		out.Hits = res.Cache.Hits
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
