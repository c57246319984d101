package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/kernels"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
	"pask/internal/tensor"
)

// Table is one rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	return metrics.FormatCSV(t.Headers, t.Rows)
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	b.WriteString(metrics.FormatTable(t.Headers, t.Rows))
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func msStr(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Fig1aResult carries the cold/hot slowdowns per device and model.
type Fig1aResult struct {
	Slowdown map[string]map[string]float64 // device -> model -> cold/hot
	Average  map[string]float64            // device -> mean slowdown
}

// Fig1a reproduces Fig 1(a): cold vs hot execution-time ratios of every
// model on the three devices.
func Fig1a(models []string) (*Table, *Fig1aResult, error) {
	res := &Fig1aResult{Slowdown: map[string]map[string]float64{}, Average: map[string]float64{}}
	devs := device.Profiles()
	tbl := &Table{
		ID:      "Fig1a",
		Title:   "DNN model cold start overhead (cold/hot ratio per device)",
		Headers: append([]string{"model"}, devNames(devs)...),
	}
	for _, d := range devs {
		res.Slowdown[d.Name] = map[string]float64{}
	}
	for _, abbr := range models {
		row := []string{abbr}
		for _, d := range devs {
			ms, err := PrepareModel(abbr, 1, d)
			if err != nil {
				return nil, nil, err
			}
			cold, hot, _, err := ms.RunColdHot()
			if err != nil {
				return nil, nil, err
			}
			ratio := float64(cold) / float64(hot)
			res.Slowdown[d.Name][abbr] = ratio
			row = append(row, f2(ratio)+"x")
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	avgRow := []string{"average"}
	for _, d := range devs {
		var vs []float64
		for _, v := range res.Slowdown[d.Name] {
			vs = append(vs, v)
		}
		res.Average[d.Name] = mean(vs)
		avgRow = append(avgRow, f2(res.Average[d.Name])+"x")
	}
	tbl.Rows = append(tbl.Rows, avgRow)
	tbl.Notes = append(tbl.Notes, "paper: averages 23.7x (MI100), 19.5x (A100), 31.3x (6900XT)")
	return tbl, res, nil
}

func devNames(devs []device.Profile) []string {
	out := make([]string, len(devs))
	for i, d := range devs {
		out[i] = d.Name
	}
	return out
}

// Fig1bResult carries the average cold-start breakdown shares.
type Fig1bResult struct {
	// Shares per model: parse / load / launch / exec / other fractions.
	Shares map[string]map[string]float64
	Avg    map[string]float64
}

var fig1bCats = []string{"code loading", "GPU execution", "kernel launch", "model parse", "others"}

// Fig1b reproduces Fig 1(b): the cold-start time breakdown by execution
// phase, averaged over the three devices.
func Fig1b(models []string) (*Table, *Fig1bResult, error) {
	res := &Fig1bResult{Shares: map[string]map[string]float64{}, Avg: map[string]float64{}}
	devs := device.Profiles()
	tbl := &Table{
		ID:      "Fig1b",
		Title:   "Cold start breakdown (share of cold time, averaged over devices)",
		Headers: append([]string{"model"}, fig1bCats...),
	}
	for _, abbr := range models {
		shares := map[string]float64{}
		for _, d := range devs {
			ms, err := PrepareModel(abbr, 1, d)
			if err != nil {
				return nil, nil, err
			}
			cold, _, bd, err := ms.RunColdHot()
			if err != nil {
				return nil, nil, err
			}
			total := float64(cold)
			shares["code loading"] += float64(bd[metrics.CatLoad]+bd[metrics.CatTransform]) / total
			shares["GPU execution"] += float64(bd[metrics.CatExec]) / total
			shares["kernel launch"] += float64(bd[metrics.CatLaunch]) / total
			shares["model parse"] += float64(bd[metrics.CatParse]) / total
			shares["others"] += float64(bd[metrics.CatOther]+bd[metrics.CatCopy]+bd[metrics.CatSync]+bd[metrics.CatOverhead]) / total
		}
		row := []string{abbr}
		for _, c := range fig1bCats {
			shares[c] /= float64(len(devs))
			row = append(row, pct(shares[c]))
		}
		res.Shares[abbr] = shares
		tbl.Rows = append(tbl.Rows, row)
	}
	avgRow := []string{"average"}
	for _, c := range fig1bCats {
		var vs []float64
		for _, m := range models {
			vs = append(vs, res.Shares[m][c])
		}
		res.Avg[c] = mean(vs)
		avgRow = append(avgRow, pct(res.Avg[c]))
	}
	tbl.Rows = append(tbl.Rows, avgRow)
	tbl.Notes = append(tbl.Notes, "paper: code loading 65.8%, GPU execution 8.4% on average")
	return tbl, res, nil
}

// Fig6Result carries speedups and utilizations for the evaluated schemes.
type Fig6Result struct {
	// Speedup[model][scheme] relative to Baseline.
	Speedup map[string]map[core.Scheme]float64
	// Utilization[model][scheme].
	Utilization map[string]map[core.Scheme]float64
	AvgSpeedup  map[core.Scheme]float64
	AvgUtil     map[core.Scheme]float64
}

var fig6Schemes = []core.Scheme{core.SchemeNNV12, core.SchemePaSK, core.SchemeIdeal}

// Fig6 reproduces Fig 6: end-to-end cold-start speedups (a) and GPU
// utilization during cold start (b) on the primary device at batch 1.
func Fig6(models []string) (*Table, *Table, *Fig6Result, error) {
	res := &Fig6Result{
		Speedup:     map[string]map[core.Scheme]float64{},
		Utilization: map[string]map[core.Scheme]float64{},
		AvgSpeedup:  map[core.Scheme]float64{},
		AvgUtil:     map[core.Scheme]float64{},
	}
	ta := &Table{ID: "Fig6a", Title: "End-to-end cold start speedup over Baseline (MI100, batch 1)",
		Headers: []string{"model", "NNV12", "PaSK", "Ideal"}}
	tb := &Table{ID: "Fig6b", Title: "GPU utilization during cold start (MI100, batch 1)",
		Headers: []string{"model", "Baseline", "NNV12", "PaSK", "Ideal"}}
	for _, abbr := range models {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			return nil, nil, nil, err
		}
		base, _, err := ms.RunScheme(core.SchemeBaseline, core.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		res.Speedup[abbr] = map[core.Scheme]float64{}
		res.Utilization[abbr] = map[core.Scheme]float64{core.SchemeBaseline: base.Utilization()}
		rowA := []string{abbr}
		rowB := []string{abbr, pct(base.Utilization())}
		for _, sch := range fig6Schemes {
			rep, _, err := ms.RunScheme(sch, core.Options{})
			if err != nil {
				return nil, nil, nil, err
			}
			sp := float64(base.Total) / float64(rep.Total)
			res.Speedup[abbr][sch] = sp
			res.Utilization[abbr][sch] = rep.Utilization()
			rowA = append(rowA, f2(sp)+"x")
			rowB = append(rowB, pct(rep.Utilization()))
		}
		ta.Rows = append(ta.Rows, rowA)
		tb.Rows = append(tb.Rows, rowB)
	}
	rowA := []string{"average"}
	rowB := []string{"average", avgUtilCell(res, models, core.SchemeBaseline)}
	for _, sch := range fig6Schemes {
		var sps, uts []float64
		for _, m := range models {
			sps = append(sps, res.Speedup[m][sch])
			uts = append(uts, res.Utilization[m][sch])
		}
		res.AvgSpeedup[sch] = geomean(sps)
		res.AvgUtil[sch] = mean(uts)
		rowA = append(rowA, f2(res.AvgSpeedup[sch])+"x")
		rowB = append(rowB, pct(res.AvgUtil[sch]))
	}
	ta.Rows = append(ta.Rows, rowA)
	tb.Rows = append(tb.Rows, rowB)
	ta.Notes = append(ta.Notes, "paper: NNV12 3.04x, PaSK 5.62x, Ideal 7.75x on average")
	tb.Notes = append(tb.Notes, "paper: NNV12 8.2%, PaSK 25.9%, Ideal 68.5% on average")
	return ta, tb, res, nil
}

func avgUtilCell(res *Fig6Result, models []string, sch core.Scheme) string {
	var vs []float64
	for _, m := range models {
		vs = append(vs, res.Utilization[m][sch])
	}
	return pct(mean(vs))
}

// Table2Result carries speedups per batch size.
type Table2Result struct {
	Speedup map[int]map[core.Scheme]float64 // batch -> scheme -> geomean speedup
}

// Table2 reproduces Table II: cold-start speedups at growing batch sizes.
func Table2(models []string, batches []int) (*Table, *Table2Result, error) {
	res := &Table2Result{Speedup: map[int]map[core.Scheme]float64{}}
	tbl := &Table{ID: "Table2", Title: "Cold start speedup with varying inference batch sizes (MI100)",
		Headers: []string{"scheme"}}
	for _, b := range batches {
		tbl.Headers = append(tbl.Headers, fmt.Sprintf("batch %d", b))
		res.Speedup[b] = map[core.Scheme]float64{}
	}
	perScheme := map[core.Scheme][]string{}
	for _, b := range batches {
		sps := map[core.Scheme][]float64{}
		for _, abbr := range models {
			ms, err := PrepareModel(abbr, b, device.MI100())
			if err != nil {
				return nil, nil, err
			}
			base, _, err := ms.RunScheme(core.SchemeBaseline, core.Options{})
			if err != nil {
				return nil, nil, err
			}
			for _, sch := range fig6Schemes {
				rep, _, err := ms.RunScheme(sch, core.Options{})
				if err != nil {
					return nil, nil, err
				}
				sps[sch] = append(sps[sch], float64(base.Total)/float64(rep.Total))
			}
		}
		for _, sch := range fig6Schemes {
			res.Speedup[b][sch] = geomean(sps[sch])
			perScheme[sch] = append(perScheme[sch], f2(res.Speedup[b][sch])+"x")
		}
	}
	for _, sch := range fig6Schemes {
		tbl.Rows = append(tbl.Rows, append([]string{string(sch)}, perScheme[sch]...))
	}
	tbl.Notes = append(tbl.Notes,
		"paper (batch 1..128): NNV12 3.04->1.74x, PaSK 5.62->3.10x, Ideal 7.75->6.41x")
	return tbl, res, nil
}

// Fig7Result carries the PaSK-run breakdown shares.
type Fig7Result struct {
	Shares map[string]map[string]float64 // model -> category -> share
	Avg    map[string]float64
}

var fig7Cats = []string{"GPU computing", "solution loading", "PASK overhead", "others"}

// Fig7 reproduces Fig 7: where time goes during a PaSK cold start.
func Fig7(models []string) (*Table, *Fig7Result, error) {
	res := &Fig7Result{Shares: map[string]map[string]float64{}, Avg: map[string]float64{}}
	tbl := &Table{ID: "Fig7", Title: "Model cold start breakdown for PaSK (MI100, batch 1)",
		Headers: append([]string{"model"}, fig7Cats...)}
	for _, abbr := range models {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			return nil, nil, err
		}
		rep, _, err := ms.RunScheme(core.SchemePaSK, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		total := float64(rep.Total)
		bd := rep.Breakdown
		shares := map[string]float64{
			"GPU computing":    float64(bd[metrics.CatExec]) / total,
			"solution loading": float64(bd[metrics.CatLoad]+bd[metrics.CatTransform]) / total,
			"PASK overhead":    float64(bd[metrics.CatOverhead]) / total,
		}
		shares["others"] = 1 - shares["GPU computing"] - shares["solution loading"] - shares["PASK overhead"]
		res.Shares[abbr] = shares
		row := []string{abbr}
		for _, c := range fig7Cats {
			row = append(row, pct(shares[c]))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	avgRow := []string{"average"}
	for _, c := range fig7Cats {
		var vs []float64
		for _, m := range models {
			vs = append(vs, res.Shares[m][c])
		}
		res.Avg[c] = mean(vs)
		avgRow = append(avgRow, pct(res.Avg[c]))
	}
	tbl.Rows = append(tbl.Rows, avgRow)
	tbl.Notes = append(tbl.Notes, "paper: solution loading 11.2%, PASK overhead 1.3% on average")
	return tbl, res, nil
}

// Fig8Result carries ablation performance normalized to full PaSK.
type Fig8Result struct {
	// Normalized[model][scheme] = time(PaSK) / time(scheme); 1.0 == PaSK.
	Normalized map[string]map[core.Scheme]float64
}

// Fig8 reproduces Fig 8: PaSK-I and PaSK-R performance normalized to PaSK.
func Fig8(models []string) (*Table, *Fig8Result, error) {
	res := &Fig8Result{Normalized: map[string]map[core.Scheme]float64{}}
	tbl := &Table{ID: "Fig8", Title: "Ablation performance normalized to PaSK (MI100, batch 1)",
		Headers: []string{"model", "PaSK-I", "PaSK-R"}}
	for _, abbr := range models {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			return nil, nil, err
		}
		pask, _, err := ms.RunScheme(core.SchemePaSK, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		res.Normalized[abbr] = map[core.Scheme]float64{}
		row := []string{abbr}
		for _, sch := range []core.Scheme{core.SchemePaSKI, core.SchemePaSKR} {
			rep, _, err := ms.RunScheme(sch, core.Options{})
			if err != nil {
				return nil, nil, err
			}
			norm := float64(pask.Total) / float64(rep.Total)
			res.Normalized[abbr][sch] = norm
			row = append(row, f2(norm))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	tbl.Notes = append(tbl.Notes, "1.00 == full PaSK; lower is worse (paper Fig 8)")
	return tbl, res, nil
}

// Fig9Result carries the cache statistics.
type Fig9Result struct {
	HitRate       map[string]float64 // model -> categorical-cache hit rate
	AvgHitRate    float64
	CatLookups    map[string]float64 // model -> lookups per hit, categorical
	NaiveLookups  map[string]float64 // model -> lookups per hit, naive
	AvgCatLookups float64
	AvgNaive      float64
}

// Fig9 reproduces Fig 9: categorical-cache hit rates (a) and applicability
// lookups per hit for categorical vs naive organization (b). Transformer
// models are omitted as in the paper (a single primitive layer).
func Fig9(models []string) (*Table, *Table, *Fig9Result, error) {
	res := &Fig9Result{HitRate: map[string]float64{}, CatLookups: map[string]float64{}, NaiveLookups: map[string]float64{}}
	ta := &Table{ID: "Fig9a", Title: "Categorical cache hit rate (MI100, batch 1)",
		Headers: []string{"model", "queries", "hits", "hit rate"}}
	tb := &Table{ID: "Fig9b", Title: "Applicability lookups per hit: categorical vs naive",
		Headers: []string{"model", "categorical", "naive"}}
	for _, abbr := range models {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			return nil, nil, nil, err
		}
		_, cat, err := ms.RunScheme(core.SchemePaSK, core.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		_, naive, err := ms.RunScheme(core.SchemePaSKR, core.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		hr := 0.0
		if cat.Cache.Queries > 0 {
			hr = float64(cat.Cache.Hits) / float64(cat.Cache.Queries)
		}
		res.HitRate[abbr] = hr
		cl, nl := 0.0, 0.0
		if cat.Cache.Hits > 0 {
			cl = float64(cat.Cache.Lookups) / float64(cat.Cache.Hits)
		}
		if naive.Cache.Hits > 0 {
			nl = float64(naive.Cache.Lookups) / float64(naive.Cache.Hits)
		}
		res.CatLookups[abbr] = cl
		res.NaiveLookups[abbr] = nl
		ta.Rows = append(ta.Rows, []string{abbr,
			fmt.Sprintf("%d", cat.Cache.Queries), fmt.Sprintf("%d", cat.Cache.Hits), pct(hr)})
		tb.Rows = append(tb.Rows, []string{abbr, f2(cl), f2(nl)})
	}
	var hrs, cls, nls []float64
	for _, m := range models {
		hrs = append(hrs, res.HitRate[m])
		cls = append(cls, res.CatLookups[m])
		nls = append(nls, res.NaiveLookups[m])
	}
	res.AvgHitRate = mean(hrs)
	res.AvgCatLookups = mean(cls)
	res.AvgNaive = mean(nls)
	ta.Rows = append(ta.Rows, []string{"average", "", "", pct(res.AvgHitRate)})
	tb.Rows = append(tb.Rows, []string{"average", f2(res.AvgCatLookups), f2(res.AvgNaive)})
	ta.Notes = append(ta.Notes, "paper: 69.7% on average")
	tb.Notes = append(tb.Notes, "paper: categorical 1.22 vs naive 1.89 lookups")
	return ta, tb, res, nil
}

// Fig4 reproduces the motivation figure: the generality-performance
// trade-off of the Winograd solution ladder on a sample problem.
func Fig4() (*Table, error) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	wide := miopen.NewConvProblem(tensor.Shape{N: 1, C: 64, H: 224, W: 224}, 64, 3, 3,
		kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, 1, tensor.F32, tensor.NCHW)
	deep := miopen.NewConvProblem(tensor.Shape{N: 1, C: 256, H: 14, W: 14}, 256, 3, 3,
		kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, 1, tensor.F32, tensor.NCHW)
	odd := miopen.NewConvProblem(tensor.Shape{N: 1, C: 6, H: 31, W: 31}, 10, 5, 5,
		kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilH: 1, DilW: 1}, 3, tensor.F32, tensor.NCHW)
	tbl := &Table{ID: "Fig4", Title: "Generality vs performance of the Winograd ladder",
		Headers: []string{"solution", "specificity", "applicable(wide)", "applicable(deep)", "applicable(odd)", "est(deep)"}}
	for _, id := range []string{"ConvWinogradNaiveFwd", "ConvBinWinogradRxSFwd", "ConvBinWinogradFwdFixed"} {
		s, _ := reg.ByID(id)
		est := "n/a"
		if s.IsApplicable(reg.Ctx(), &deep) {
			est = msStr(miopen.EstimateTime(reg.Ctx().Dev, s, &deep))
		}
		tbl.Rows = append(tbl.Rows, []string{
			id, fmt.Sprintf("%d", s.Specificity()),
			fmt.Sprintf("%v", s.IsApplicable(reg.Ctx(), &wide)),
			fmt.Sprintf("%v", s.IsApplicable(reg.Ctx(), &deep)),
			fmt.Sprintf("%v", s.IsApplicable(reg.Ctx(), &odd)),
			est,
		})
	}
	tbl.Notes = append(tbl.Notes, "specialized solutions are faster but bind to narrower problems (paper Fig 4)")
	return tbl, nil
}

// ExtBlasScope evaluates the §VI library-supporting extension: PASK managing
// the BLAS library's kernels for transformer models.
func ExtBlasScope() (*Table, error) {
	tbl := &Table{ID: "Ext-BLAS", Title: "PaSK with BLAS-scope extension on transformers (MI100, batch 1)",
		Headers: []string{"model", "PaSK", "PaSK+BLAS", "blas loads skipped"}}
	for _, abbr := range TransformerAbbrs() {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			return nil, err
		}
		base, _, err := ms.RunScheme(core.SchemeBaseline, core.Options{})
		if err != nil {
			return nil, err
		}
		plain, _, err := ms.RunScheme(core.SchemePaSK, core.Options{})
		if err != nil {
			return nil, err
		}
		scoped, res, err := ms.RunScheme(core.SchemePaSK, core.Options{BlasScope: true})
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{abbr,
			f2(float64(base.Total)/float64(plain.Total)) + "x",
			f2(float64(base.Total)/float64(scoped.Total)) + "x",
			fmt.Sprintf("%d", res.BlasSkipped)})
	}
	tbl.Notes = append(tbl.Notes, "paper §VI: extending PASK to hipBLAS recovers the transformer speedups")
	return tbl, nil
}

// ExtPrecision evaluates the §VI precision-preference extension on
// fp16-quantized CNNs: reusing resident fp32 kernels instead of loading
// absent low-precision specialists.
func ExtPrecision(models []string) (*Table, error) {
	tbl := &Table{ID: "Ext-Precision", Title: "Precision preference on int8-quantized models (MI100, batch 1)",
		Headers: []string{"model", "PaSK", "PaSK+prec", "fp32 fallbacks"}}
	for _, abbr := range models {
		// Quantized deployment: the same architecture compiled at int8.
		f16, err := PrepareModelTyped(abbr, 1, device.MI100(), tensor.I8)
		if err != nil {
			return nil, err
		}
		base, _, err := f16.RunScheme(core.SchemeBaseline, core.Options{})
		if err != nil {
			return nil, err
		}
		plain, _, err := f16.RunScheme(core.SchemePaSK, core.Options{})
		if err != nil {
			return nil, err
		}
		pref, res, err := f16.RunScheme(core.SchemePaSK, core.Options{PrecisionPreference: true})
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{abbr,
			f2(float64(base.Total)/float64(plain.Total)) + "x",
			f2(float64(base.Total)/float64(pref.Total)) + "x",
			fmt.Sprintf("%d", res.PrecisionFallbacks)})
	}
	return tbl, nil
}

// ExtBackground evaluates §VI inter-request background loading: the skipped
// solutions are loaded during the idle gap between requests.
func ExtBackground(models []string) (*Table, error) {
	tbl := &Table{ID: "Ext-Background", Title: "Inter-request background loading (MI100, batch 1)",
		Headers: []string{"model", "request 1", "request 2 (no bg)", "request 2 (bg)", "bg loads"}}
	for _, abbr := range models {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			return nil, err
		}
		withBG, err := ms.runTwoRequests(true)
		if err != nil {
			return nil, err
		}
		noBG, err := ms.runTwoRequests(false)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{abbr,
			msStr(withBG.first), msStr(noBG.second), msStr(withBG.second),
			fmt.Sprintf("%d", withBG.loaded)})
	}
	tbl.Notes = append(tbl.Notes, "the idle interval between requests is long enough to load every skipped solution (§VI)")
	return tbl, nil
}

type twoRequestResult struct {
	first, second time.Duration
	loaded        int
}

func (ms *ModelSetup) runTwoRequests(background bool) (*twoRequestResult, error) {
	pr := ms.NewProcess()
	out := &twoRequestResult{}
	err := pr.Main(func(p *sim.Proc) error {
		cache := core.NewCache(core.SchemePaSK, pr.Lib)
		t0 := p.Now()
		res, err := core.Run(p, pr.Runner, ms.Model, core.SchemePaSK, cache, core.Options{})
		if err != nil {
			return err
		}
		out.first = p.Now() - t0
		if background {
			if out.loaded, err = core.BackgroundLoad(p, pr.Runner, cache, res.Skipped, 3*time.Second); err != nil {
				return err
			}
			// The idle gap also covers the plan's remaining objects (layout
			// transforms the skipped specialists will need).
			if err := pr.Runner.PreloadAll(p, ms.Model); err != nil {
				return err
			}
		}
		t1 := p.Now()
		if _, err := core.Run(p, pr.Runner, ms.Model, core.SchemePaSK, cache, core.Options{}); err != nil {
			return err
		}
		out.second = p.Now() - t1
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
