package experiments

import (
	"fmt"

	"pask/internal/core"
	"pask/internal/device"
)

// This file registers the paper-figure experiments and the package's own
// single runs (coldstart, warmup) on the menu. Registration order is the
// -exp all order, which preserves the CLI's historical sweep: figures
// first, then the extensions; the serving-layer experiments (chaos,
// multitenant, overload, ...) register from internal/serving and append
// after these because that package's init runs later.

// modelsOrAll resolves an explicit model selection, defaulting to the full
// zoo.
func modelsOrAll(models []string) []string {
	if len(models) > 0 {
		return models
	}
	return AllModelAbbrs()
}

// convOnly filters the selection to the convolution-dominated models (the
// cache-statistics experiments omit transformers, as the paper does).
func convOnly(models []string) []string {
	conv := map[string]bool{}
	for _, m := range ConvModelAbbrs() {
		conv[m] = true
	}
	var out []string
	for _, m := range models {
		if conv[m] {
			out = append(out, m)
		}
	}
	return out
}

// tables wraps tables into a Result, dropping trailing nils.
func tables(ts ...*Table) *Result {
	r := &Result{}
	for _, t := range ts {
		if t != nil {
			r.Tables = append(r.Tables, t)
		}
	}
	return r
}

func init() {
	Register(Experiment{
		Name: "fig1a", Description: "cold/hot overhead per model and device", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, _, err := Fig1a(modelsOrAll(o.Models))
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "fig1b", Description: "cold-start time breakdown (loading vs execution)", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, _, err := Fig1b(modelsOrAll(o.Models))
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "fig4", Description: "specialization ladder: specialized vs generic kernels", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, err := Fig4()
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "fig6", Description: "end-to-end speedup and utilization across schemes", InAll: true,
		Run: func(o Options) (*Result, error) {
			ta, tb, _, err := Fig6(modelsOrAll(o.Models))
			return tables(ta, tb), err
		},
	})
	Register(Experiment{
		Name: "table2", Description: "speedup across batch sizes", InAll: true,
		Run: func(o Options) (*Result, error) {
			batches := o.Batches
			if len(batches) == 0 {
				batches = []int{1, 4, 16, 64, 128}
			}
			tbl, _, err := Table2(modelsOrAll(o.Models), batches)
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "fig7", Description: "PaSK cold-start breakdown (loading share, overhead)", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, _, err := Fig7(modelsOrAll(o.Models))
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "fig8", Description: "PaSK-I / PaSK-R ablations vs full PaSK", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, _, err := Fig8(modelsOrAll(o.Models))
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "fig9", Description: "solution-cache hit rate and lookups per hit", InAll: true,
		Run: func(o Options) (*Result, error) {
			ta, tb, _, err := Fig9(convOnly(modelsOrAll(o.Models)))
			return tables(ta, tb), err
		},
	})
	Register(Experiment{
		Name: "ext-blas", Description: "BLAS handle scope extension", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, err := ExtBlasScope()
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "ext-precision", Description: "precision sweep extension", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, err := ExtPrecision(convOnly(modelsOrAll(o.Models)))
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "ext-background", Description: "background-loading extension", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, err := ExtBackground(convOnly(modelsOrAll(o.Models)))
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "ablations", Description: "implementation design ablations vs full PaSK", InAll: true,
		Run: func(o Options) (*Result, error) {
			tbl, _, err := Ablations(convOnly(modelsOrAll(o.Models)))
			return tables(tbl), err
		},
	})
	Register(Experiment{
		Name: "ext-crossmodel", Description: "cross-model kernel reuse in a warm process", InAll: true,
		Run: runExtCrossModel,
	})
	Register(Experiment{
		Name:        "coldstart",
		Description: "one PaSK cold start with a full exportable timeline",
		Run:         runColdstartExp,
	})
	Register(Experiment{
		Name:        "warmup",
		Description: "cold vs recorded vs profile-replay cold starts per device",
		Bench:       true,
		Run: func(o Options) (*Result, error) {
			def := "res"
			if o.Quick {
				def = "alex"
			}
			tbl, bench, err := WarmupExperiment(o.Model(def), o.Batch(), o.Trace)
			if err != nil {
				return nil, err
			}
			return &Result{Tables: []*Table{tbl}, Bench: bench}, nil
		},
	})
}

// runExtCrossModel measures model B's cold start in a process warmed by
// model A, over a fixed pair set.
func runExtCrossModel(o Options) (*Result, error) {
	pairs := [][2]string{{"res", "vgg"}, {"alex", "res"}, {"reg", "eff"}}
	tbl := &Table{ID: "Ext-CrossModel",
		Title:   "Cross-model kernel reuse: model B cold start in a process warmed by model A (MI100)",
		Headers: []string{"A -> B", "fresh process", "warm process", "reuse hits"}}
	for _, pr := range pairs {
		res, err := CrossModelReuse(pr[0], pr[1], device.MI100())
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			pr[0] + " -> " + pr[1],
			fmt.Sprintf("%.1fms", res.FreshMs),
			fmt.Sprintf("%.1fms", res.SharedMs),
			fmt.Sprintf("%d", res.Hits)})
	}
	tbl.Notes = append(tbl.Notes,
		"benefit is bounded by problem-configuration overlap between the models; foreign specialists at the cache head can add lookups")
	return tables(tbl), nil
}

// runColdstartExp executes one PaSK cold start of the first selected model
// (default res) at the first selected batch, recording the timeline into
// o.Trace when set.
func runColdstartExp(o Options) (*Result, error) {
	model, batch := o.Model("res"), o.Batch()
	ms, err := PrepareModel(model, batch, device.MI100())
	if err != nil {
		return nil, err
	}
	wr, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, o.Trace, nil, false)
	if err != nil {
		return nil, err
	}
	rep, res := wr.Rep, wr.Res
	tbl := &Table{ID: "ColdStart",
		Title:   fmt.Sprintf("PaSK cold start: %s on MI100 (batch %d)", model, batch),
		Headers: []string{"metric", "value"},
		Rows: [][]string{
			{"cold start", fmt.Sprintf("%.2fms", float64(rep.Total)/1e6)},
			{"GPU utilization", fmt.Sprintf("%.1f%%", 100*rep.Utilization())},
			{"code objects loaded", fmt.Sprintf("%d (%.1f MB)", rep.Loads, float64(rep.LoadedBytes)/1e6)},
			{"reuse", fmt.Sprintf("%d queries, %d hits, %d loads skipped", res.Cache.Queries, res.Cache.Hits, res.SkippedLoads)},
			{"milestone", fmt.Sprintf("%d", res.Milestone)},
		}}
	return tables(tbl), nil
}
