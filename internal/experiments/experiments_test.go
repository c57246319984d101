package experiments

import (
	"strings"
	"testing"

	"pask/internal/core"
	"pask/internal/device"
)

// These tests assert the *shape* of the paper's results on the simulated
// stack: who wins, by roughly what factor, and where the crossovers fall.
// EXPERIMENTS.md records the exact paper-vs-measured numbers.

var testModels = []string{"alex", "vgg", "res", "eff", "vit"}

func TestPrepareModelAllTwelve(t *testing.T) {
	for _, abbr := range AllModelAbbrs() {
		ms, err := PrepareModel(abbr, 1, device.MI100())
		if err != nil {
			t.Fatalf("%s: %v", abbr, err)
		}
		if ms.Model.NumInstructions() == 0 || len(ms.Store.Paths()) == 0 {
			t.Fatalf("%s: empty setup", abbr)
		}
	}
}

func TestFig1aShape(t *testing.T) {
	_, res, err := Fig1a(testModels)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 23.7x (MI100), 19.5x (A100), 31.3x (6900XT). Assert the band
	// and the device ordering: CUDA loads fastest, the consumer ROCm part
	// slowest.
	for dev, avg := range res.Average {
		if avg < 8 || avg > 60 {
			t.Errorf("%s average slowdown %.1fx outside [8, 60]", dev, avg)
		}
	}
	if !(res.Average["A100"] < res.Average["MI100"] && res.Average["MI100"] < res.Average["6900XT"]) {
		t.Errorf("device ordering violated: %+v", res.Average)
	}
	// Every model suffers a material cold start on every device.
	for dev, models := range res.Slowdown {
		for m, v := range models {
			if v < 3 {
				t.Errorf("%s on %s: slowdown %.1fx implausibly low", m, dev, v)
			}
		}
	}
}

func TestFig1bShape(t *testing.T) {
	_, res, err := Fig1b(testModels)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: loading 65.8%, execution 8.4%. Loading must dominate and
	// execution must be a small slice.
	if res.Avg["code loading"] < 0.40 || res.Avg["code loading"] > 0.85 {
		t.Errorf("loading share %.1f%% outside [40, 85]", 100*res.Avg["code loading"])
	}
	if res.Avg["GPU execution"] > 0.20 {
		t.Errorf("execution share %.1f%% too large", 100*res.Avg["GPU execution"])
	}
	if res.Avg["code loading"] < 4*res.Avg["GPU execution"] {
		t.Errorf("loading (%.1f%%) must dwarf execution (%.1f%%)",
			100*res.Avg["code loading"], 100*res.Avg["GPU execution"])
	}
}

func TestFig6Shape(t *testing.T) {
	_, _, res, err := Fig6(AllModelAbbrs())
	if err != nil {
		t.Fatal(err)
	}
	// Paper averages: NNV12 3.04x, PaSK 5.62x, Ideal 7.75x.
	nnv := res.AvgSpeedup[core.SchemeNNV12]
	pask := res.AvgSpeedup[core.SchemePaSK]
	ideal := res.AvgSpeedup[core.SchemeIdeal]
	if !(1 < nnv && nnv < pask && pask < ideal) {
		t.Fatalf("speedup ordering violated: NNV12=%.2f PaSK=%.2f Ideal=%.2f", nnv, pask, ideal)
	}
	if pask < 2.5 || pask > 9 {
		t.Errorf("PaSK average speedup %.2fx outside [2.5, 9]", pask)
	}
	if ideal < 5 || ideal > 16 {
		t.Errorf("Ideal average speedup %.2fx outside [5, 16]", ideal)
	}
	// Transformers benefit least (paper §V-A).
	for _, tr := range TransformerAbbrs() {
		if res.Speedup[tr][core.SchemePaSK] > 2 {
			t.Errorf("%s PaSK speedup %.2fx: transformers should benefit least",
				tr, res.Speedup[tr][core.SchemePaSK])
		}
	}
	// Convolution models benefit substantially.
	for _, cm := range []string{"res", "reg", "eff"} {
		if res.Speedup[cm][core.SchemePaSK] < 3 {
			t.Errorf("%s PaSK speedup %.2fx too small", cm, res.Speedup[cm][core.SchemePaSK])
		}
	}
	// Utilization ordering (paper Fig 6b): Baseline < NNV12 < PaSK < Ideal.
	base := avgOf(res.Utilization, AllModelAbbrs(), core.SchemeBaseline)
	nnvU := res.AvgUtil[core.SchemeNNV12]
	paskU := res.AvgUtil[core.SchemePaSK]
	idealU := res.AvgUtil[core.SchemeIdeal]
	if !(base < nnvU && nnvU < paskU && paskU < idealU) {
		t.Errorf("utilization ordering violated: base=%.3f nnv=%.3f pask=%.3f ideal=%.3f",
			base, nnvU, paskU, idealU)
	}
	if paskU < 0.10 || paskU > 0.45 {
		t.Errorf("PaSK utilization %.1f%% outside [10, 45]", 100*paskU)
	}
}

func avgOf(m map[string]map[core.Scheme]float64, models []string, sch core.Scheme) float64 {
	var sum float64
	for _, k := range models {
		sum += m[k][sch]
	}
	return sum / float64(len(models))
}

func TestTable2Shape(t *testing.T) {
	_, res, err := Table2(testModels, []int{1, 16, 128})
	if err != nil {
		t.Fatal(err)
	}
	// Speedups shrink monotonically with batch size for every scheme
	// (paper Table II), and PaSK stays between NNV12 and Ideal.
	for _, sch := range []core.Scheme{core.SchemeNNV12, core.SchemePaSK, core.SchemeIdeal} {
		if !(res.Speedup[1][sch] > res.Speedup[16][sch] && res.Speedup[16][sch] > res.Speedup[128][sch]) {
			t.Errorf("%s speedups not decreasing with batch: %.2f, %.2f, %.2f",
				sch, res.Speedup[1][sch], res.Speedup[16][sch], res.Speedup[128][sch])
		}
	}
	for _, b := range []int{1, 16, 128} {
		if !(res.Speedup[b][core.SchemeNNV12] < res.Speedup[b][core.SchemePaSK] &&
			res.Speedup[b][core.SchemePaSK] < res.Speedup[b][core.SchemeIdeal]) {
			t.Errorf("batch %d ordering violated: %+v", b, res.Speedup[b])
		}
	}
}

func TestFig7Shape(t *testing.T) {
	_, res, err := Fig7(testModels)
	if err != nil {
		t.Fatal(err)
	}
	// PASK overhead must be negligible (paper: 1.3%).
	if res.Avg["PASK overhead"] > 0.05 {
		t.Errorf("PASK overhead %.1f%% too large", 100*res.Avg["PASK overhead"])
	}
	// Under PaSK, loading no longer dominates the way it does in Fig 1b,
	// and transformers keep the largest loading share (paper §V-B).
	for _, cm := range []string{"alex", "vgg"} {
		if res.Shares[cm]["solution loading"] > 0.6 {
			t.Errorf("%s loading share %.1f%% still dominates under PaSK",
				cm, 100*res.Shares[cm]["solution loading"])
		}
	}
	if res.Shares["vit"]["solution loading"] < res.Shares["res"]["solution loading"] {
		t.Errorf("transformer loading share (%.1f%%) should exceed CNN share (%.1f%%)",
			100*res.Shares["vit"]["solution loading"], 100*res.Shares["res"]["solution loading"])
	}
}

func TestFig8Shape(t *testing.T) {
	_, res, err := Fig8(testModels)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range testModels {
		ni := res.Normalized[m][core.SchemePaSKI]
		nr := res.Normalized[m][core.SchemePaSKR]
		if ni > 1.001 || nr > 1.001 {
			t.Errorf("%s: ablation beats full PaSK (I=%.2f R=%.2f)", m, ni, nr)
		}
		if ni <= 0 || nr <= 0 {
			t.Errorf("%s: degenerate normalization (I=%.2f R=%.2f)", m, ni, nr)
		}
	}
	// Transformers show only nuances between PaSK and PaSK-I (paper §V-C).
	if res.Normalized["vit"][core.SchemePaSKI] < 0.95 {
		t.Errorf("vit PaSK-I = %.2f, should be ~1.0 (single primitive layer)",
			res.Normalized["vit"][core.SchemePaSKI])
	}
}

func TestFig9Shape(t *testing.T) {
	_, _, res, err := Fig9(ConvModelAbbrs())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 69.7% average hit rate; ours is optimistic (broader resident
	// generic coverage) but must stay high and non-trivial.
	if res.AvgHitRate < 0.6 {
		t.Errorf("average hit rate %.1f%% too low", 100*res.AvgHitRate)
	}
	// Categorical lookups per hit near 1 (paper: 1.22) and strictly better
	// than the naive exhaustive scan (paper: 1.89).
	if res.AvgCatLookups < 1 || res.AvgCatLookups > 2 {
		t.Errorf("categorical lookups/hit %.2f outside [1, 2]", res.AvgCatLookups)
	}
	for _, m := range ConvModelAbbrs() {
		if res.CatLookups[m] > res.NaiveLookups[m] {
			t.Errorf("%s: categorical (%.2f) worse than naive (%.2f)",
				m, res.CatLookups[m], res.NaiveLookups[m])
		}
	}
}

func TestFig4Ladder(t *testing.T) {
	tbl, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("ladder rows = %d", len(tbl.Rows))
	}
	// Generality shrinks down the ladder: the naive tier covers the wide
	// problem, the fixed specialist does not.
	if tbl.Rows[0][2] != "true" || tbl.Rows[2][2] != "false" {
		t.Errorf("generality shape wrong: %v", tbl.Rows)
	}
}

func TestExtensionsRun(t *testing.T) {
	if _, err := ExtBlasScope(); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtPrecision([]string{"alex"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtBackground([]string{"vgg"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSchemeRejectsUnknown(t *testing.T) {
	ms, err := PrepareModel("alex", 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ms.RunScheme(core.Scheme("Bogus"), core.Options{}); err == nil {
		t.Fatal("unknown scheme must fail")
	}
}

func TestReportsAreSelfConsistent(t *testing.T) {
	ms, err := PrepareModel("res", 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range core.Schemes() {
		rep, _, err := ms.RunScheme(sch, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total <= 0 {
			t.Errorf("%s: non-positive total", sch)
		}
		if rep.GPUBusy > rep.Total {
			t.Errorf("%s: busy (%v) exceeds total (%v)", sch, rep.GPUBusy, rep.Total)
		}
		var sum int64
		for _, v := range rep.Breakdown {
			sum += int64(v)
		}
		if sum != int64(rep.Total) {
			t.Errorf("%s: breakdown sums to %d, total %d", sch, sum, rep.Total)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	_, res, err := Ablations([]string{"alex", "res"})
	if err != nil {
		t.Fatal(err)
	}
	for m, r := range res {
		// Unseeded reuse must cost real time: the resident seed is a major
		// contributor to PaSK's result in this implementation.
		if r.NoSeed <= r.PaSK {
			t.Errorf("%s: unseeded (%.1fms) not slower than seeded (%.1fms)", m, r.NoSeed, r.PaSK)
		}
		// Fusion shrinks the baseline's loading work.
		if r.FusedBaseline > r.PlainBaseline {
			t.Errorf("%s: fused baseline (%.1fms) slower than plain (%.1fms)",
				m, r.FusedBaseline, r.PlainBaseline)
		}
		// PaSK beats both baselines.
		if r.PaSK >= r.FusedBaseline {
			t.Errorf("%s: PaSK (%.1fms) not faster than fused baseline (%.1fms)",
				m, r.PaSK, r.FusedBaseline)
		}
	}
}

// TestExperimentsDeterministic: the whole evaluation is virtual-time exact —
// running an experiment twice produces byte-identical tables.
func TestExperimentsDeterministic(t *testing.T) {
	a, au, _, err := Fig6([]string{"alex", "res", "vit"})
	if err != nil {
		t.Fatal(err)
	}
	b, bu, _, err := Fig6([]string{"alex", "res", "vit"})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || au.String() != bu.String() {
		t.Fatalf("Fig6 not deterministic:\n%s\nvs\n%s", a, b)
	}
	c, _, err := Fig1a([]string{"alex"})
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := Fig1a([]string{"alex"})
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != d.String() {
		t.Fatal("Fig1a not deterministic")
	}
}

// TestTableRendering exercises the Table formatter.
func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Headers: []string{"a", "b"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n1"}}
	out := tbl.String()
	for _, want := range []string{"X — demo", "a", "1", "note: n1"} {
		if !containsStr(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if tbl.CSV() == "" {
		t.Error("CSV output empty")
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// TestCrossModelReuse: kernels loaded for one model are recycled when a
// second model cold-starts in the same process — the multi-tenant corollary
// of "PASK recycles existing loaded kernels".
func TestCrossModelReuse(t *testing.T) {
	res, err := CrossModelReuse("res", "vgg", device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	// Reuse still resolves every layer; the net time benefit is bounded by
	// how much the two models' problem configurations overlap, and foreign
	// specialists at the MRU head can even add lookups. Assert the shared
	// start is at worst marginally slower and never re-loads shared objects.
	if res.SharedMs > res.FreshMs*1.05 {
		t.Fatalf("warm-process start (%.2fms) much slower than fresh (%.2fms)",
			res.SharedMs, res.FreshMs)
	}
	if res.Hits == 0 {
		t.Fatal("no cross-model reuse hits")
	}
}

func TestPrepareModelsSharedOneStore(t *testing.T) {
	setups, err := PrepareModelsShared([]string{"alex", "res"}, 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	if setups["alex"].Store != setups["res"].Store || setups["alex"].Reg != setups["res"].Reg {
		t.Fatal("shared setups must share the store and registry")
	}
}
