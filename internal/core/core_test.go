package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pask/internal/backend"
	"pask/internal/blas"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/graphx"
	"pask/internal/kernels"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/onnx/zoo"
	"pask/internal/sim"
	"pask/internal/tensor"
)

// zooByAbbr resolves a zoo spec inside tests.
func zooByAbbr(t *testing.T, abbr string) (zoo.Spec, error) {
	t.Helper()
	return zoo.ByAbbr(abbr)
}

// harness bundles one compiled model with its set-up: the primitive and
// GEMM registries and the shared object store. Each run gets a fresh
// simulated process (cold instance) over that one set-up.
type harness struct {
	reg   *miopen.Registry
	breg  *blas.Registry
	store *codeobj.Store
	model *graphx.CompiledModel
}

func newHarness(t *testing.T, abbr string, batch int, opts graphx.CompileOptions) *harness {
	t.Helper()
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	spec, err := zoo.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(batch)
	if err != nil {
		t.Fatal(err)
	}
	m, err := graphx.Compile(g, miopen.NewPerfDB(reg), opts)
	if err != nil {
		t.Fatal(err)
	}
	return setUp(t, reg, m)
}

// setUp materializes m, compiled against reg, into a new store and a new
// MI100 GEMM registry: the set-up every process of the harness shares.
func setUp(t *testing.T, reg *miopen.Registry, m *graphx.CompiledModel) *harness {
	t.Helper()
	h := &harness{reg: reg, breg: blas.NewRegistry(device.MI100()), store: codeobj.NewStore(), model: m}
	objs := h.store.Batch()
	if err := graphx.MaterializeModel(objs, reg, h.breg, m); err != nil {
		t.Fatal(err)
	}
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	return h
}

// newRunner returns a runner of one process of the set-up on rt.
func (h *harness) newRunner(rt *backend.Registry, tracer *metrics.Tracer) *graphx.Runner {
	return graphx.NewRunner(rt, miopen.NewLibrary(h.reg, rt), blas.NewLibrary(h.breg, rt), tracer)
}

// seededCat returns a categorical cache pre-seeded with the library's
// resident generics, as PASK configures at startup.
func seededCat(r *graphx.Runner) *CategoricalCache {
	c := NewCategoricalCache()
	SeedResidents(c, r.Lib)
	return c
}

// coldRun executes fn in a fresh process and returns its wall time.
func (h *harness) coldRun(t *testing.T, fn func(p *sim.Proc, r *graphx.Runner) error) (time.Duration, *graphx.Runner) {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), h.store, backend.HIP)
	runner := h.newRunner(rt, &metrics.Tracer{})
	var total time.Duration
	var runErr error
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		if err := runner.Lib.LoadResidents(p); err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		runErr = fn(p, runner)
		total = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return total, runner
}

func testInstances(t *testing.T) (generic, midTier, specialist miopen.Instance, reg *miopen.Registry, prob miopen.Problem) {
	t.Helper()
	reg = miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	prob = miopen.NewConvProblem(tensor.Shape{N: 1, C: 64, H: 28, W: 28}, 64, 3, 3,
		kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1},
		1, tensor.F32, tensor.NCHW)
	gen, _ := reg.ByID("ConvWinogradNaiveFwd")
	mid, _ := reg.ByID("ConvBinWinogradRxSFwd")
	spec, _ := reg.ByID("ConvBinWinogradFwdFixed")
	return miopen.Bind(gen, &prob), miopen.Bind(mid, &prob), miopen.Bind(spec, &prob), reg, prob
}

// withProc runs fn inside a one-process environment with a library bound to
// an empty store.
func withProc(t *testing.T, reg *miopen.Registry, fn func(p *sim.Proc, lib *miopen.Library)) {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), codeobj.NewStore(), backend.HIP)
	lib := miopen.NewLibrary(reg, rt)
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		fn(p, lib)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalCacheInsertAndPromote(t *testing.T) {
	gen, mid, spec, _, _ := testInstances(t)
	c := NewCategoricalCache()
	c.Insert(gen)
	c.Insert(mid)
	c.Insert(spec)
	if c.Len() != 3 || len(c.lists[miopen.PatternWinograd]) != 3 {
		t.Fatalf("len = %d, Winograd list = %d", c.Len(), len(c.lists[miopen.PatternWinograd]))
	}
	// Re-inserting does not duplicate.
	c.Insert(gen)
	if c.Len() != 3 {
		t.Fatalf("duplicate insert grew cache to %d", c.Len())
	}
	if c.Stats().Inserts != 3 {
		t.Fatalf("inserts = %d", c.Stats().Inserts)
	}
}

func TestCategoricalCacheHitUsesOneLookupForMRU(t *testing.T) {
	gen, mid, spec, reg, prob := testInstances(t)
	withProc(t, reg, func(p *sim.Proc, lib *miopen.Library) {
		c := NewCategoricalCache()
		c.Insert(gen)
		c.Insert(mid) // mid is now MRU and applicable
		sub, ok := c.GetSub(p, lib, spec, lib.Reg.Intern(&prob))
		if !ok {
			t.Error("expected hit")
			return
		}
		if sub.Path() != mid.Path() {
			t.Errorf("got %s, want MRU mid-tier", sub.Path())
		}
		st := c.Stats()
		if st.Lookups != 1 || st.Hits != 1 || st.Queries != 1 {
			t.Errorf("stats = %+v, want one lookup for an MRU hit", st)
		}
	})
}

func TestCategoricalCacheMissSkipsOtherPatterns(t *testing.T) {
	_, mid, _, reg, prob := testInstances(t)
	direct, _ := reg.ByID("ConvDirectNaiveFwd")
	dInst := miopen.Bind(direct, &prob)
	withProc(t, reg, func(p *sim.Proc, lib *miopen.Library) {
		c := NewCategoricalCache()
		c.Insert(dInst) // only a DirectConv instance cached
		// Query for a Winograd solution: the categorical cache must not
		// check the DirectConv list and must miss with zero lookups.
		if _, ok := c.GetSub(p, lib, mid, lib.Reg.Intern(&prob)); ok {
			t.Error("unexpected hit across patterns")
		}
		if st := c.Stats(); st.Lookups != 0 {
			t.Errorf("lookups = %d, categorical miss must not scan foreign patterns", st.Lookups)
		}
	})
}

func TestNaiveCacheScansForeignPatterns(t *testing.T) {
	gen, _, spec, reg, prob := testInstances(t)
	direct, _ := reg.ByID("ConvDirectNaiveFwd")
	pool, _ := reg.ByID("PoolingNaiveFwd")
	poolProb := miopen.NewPoolProblem(tensor.Shape{N: 1, C: 8, H: 8, W: 8},
		kernels.Pool2DParams{WinH: 2, WinW: 2, StrideH: 2, StrideW: 2}, kernels.MaxPool, tensor.F32, tensor.NCHW)
	withProc(t, reg, func(p *sim.Proc, lib *miopen.Library) {
		c := NewNaiveCache()
		c.Insert(gen)                          // applicable, oldest
		c.Insert(miopen.Bind(direct, &prob))   // foreign pattern, still checked
		c.Insert(miopen.Bind(pool, &poolProb)) // inapplicable, MRU
		sub, ok := c.GetSub(p, lib, spec, lib.Reg.Intern(&prob))
		if !ok {
			t.Error("expected hit")
			return
		}
		// Naive scan: pool (inapplicable) -> direct (applicable!).
		// The flat cache may return a cross-pattern substitute; what matters
		// for Fig 9b is the lookup count.
		if c.Stats().Lookups < 2 {
			t.Errorf("lookups = %d, naive scan should pay for foreign entries", c.Stats().Lookups)
		}
		_ = sub
	})
}

func TestGetSubChargesCheckTime(t *testing.T) {
	gen, _, spec, reg, prob := testInstances(t)
	withProc(t, reg, func(p *sim.Proc, lib *miopen.Library) {
		c := NewCategoricalCache()
		c.Insert(gen)
		before := p.Now()
		if _, ok := c.GetSub(p, lib, spec, lib.Reg.Intern(&prob)); !ok {
			t.Error("expected hit")
		}
		host := lib.RT.Host()
		want := host.CacheQueryFixed + host.ApplicabilityCheck
		if got := p.Now() - before; got != want {
			t.Errorf("query cost %v, want %v", got, want)
		}
	})
}

// Property: GetSub never returns an inapplicable instance, under random
// cache contents and queries.
func TestGetSubSoundnessProperty(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	sols := reg.Solutions()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv()
		gpu := device.NewGPU(env, device.MI100())
		rt := backend.New(env, gpu, device.DefaultHost(), codeobj.NewStore(), backend.HIP)
		lib := miopen.NewLibrary(reg, rt)
		ok := true
		env.Spawn("main", func(p *sim.Proc) {
			defer gpu.CloseAll()
			var caches []Cache = []Cache{NewCategoricalCache(), NewNaiveCache()}
			c := caches[rng.Intn(2)]
			// Populate with random bound instances.
			for i := 0; i < rng.Intn(8); i++ {
				prob := randomConvProblem(rng)
				s := sols[rng.Intn(len(sols))]
				if s.IsApplicable(reg.Ctx(), &prob) {
					c.Insert(miopen.Bind(s, &prob))
				}
			}
			for i := 0; i < 5; i++ {
				prob := randomConvProblem(rng)
				want, err := reg.FindBest(&prob)
				if err != nil {
					continue
				}
				sub, hit := c.GetSub(p, lib, want.Inst, lib.Reg.Intern(&prob))
				if hit && !sub.IsApplicable(reg.Ctx(), &prob) {
					ok = false
				}
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomConvProblem(rng *rand.Rand) miopen.Problem {
	c := []int{3, 8, 16, 64, 128}[rng.Intn(5)]
	k := []int{8, 16, 64, 256}[rng.Intn(4)]
	r := []int{1, 3, 5}[rng.Intn(3)]
	hw := []int{7, 14, 28, 56, 224}[rng.Intn(5)]
	st := rng.Intn(2) + 1
	return miopen.NewConvProblem(tensor.Shape{N: 1, C: c, H: hw, W: hw}, k, r, r,
		kernels.Conv2DParams{StrideH: st, StrideW: st, PadH: r / 2, PadW: r / 2, DilH: 1, DilW: 1},
		1, tensor.F32, tensor.NCHW)
}

func TestInterleavedPaSKBeatsBaseline(t *testing.T) {
	h := newHarness(t, "vgg", 1, graphx.CompileOptions{})
	baseline, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		return r.RunBaseline(p, h.model)
	})
	var res *Result
	pask, paskRunner := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		res, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	if pask >= baseline {
		t.Fatalf("PaSK (%v) not faster than baseline (%v)", pask, baseline)
	}
	if res.SkippedLoads == 0 {
		t.Fatal("PaSK skipped no loads on VGG")
	}
	if res.Cache.Hits == 0 || res.Cache.Queries < res.Cache.Hits {
		t.Fatalf("cache stats inconsistent: %+v", res.Cache)
	}
	if res.Milestone < 1 {
		t.Fatalf("milestone = %d", res.Milestone)
	}
	if paskRunner.RT.Stats().ModuleLoads == 0 {
		t.Fatal("PaSK must still load something")
	}
	speedup := float64(baseline) / float64(pask)
	if speedup < 1.5 {
		t.Fatalf("PaSK speedup %.2fx too small (baseline=%v pask=%v)", speedup, baseline, pask)
	}
}

func TestPaSKIInterleavesButLoadsEverything(t *testing.T) {
	h := newHarness(t, "res", 1, graphx.CompileOptions{})
	baseline, baseRunner := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		return r.RunBaseline(p, h.model)
	})
	var res *Result
	paskI, iRunner := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		res, err = RunInterleaved(p, r, h.model, NewCategoricalCache(), false, Options{})
		return err
	})
	if res.SkippedLoads != 0 || res.Cache.Queries != 0 {
		t.Fatalf("PaSK-I must not reuse: %+v", res)
	}
	if iRunner.RT.Stats().ModuleLoads != baseRunner.RT.Stats().ModuleLoads {
		t.Fatalf("PaSK-I loads %d != baseline loads %d",
			iRunner.RT.Stats().ModuleLoads, baseRunner.RT.Stats().ModuleLoads)
	}
	if paskI >= baseline {
		t.Fatalf("PaSK-I (%v) not faster than baseline (%v): interleaving must overlap work", paskI, baseline)
	}
}

func TestFullPaSKFasterThanAblations(t *testing.T) {
	h := newHarness(t, "eff", 1, graphx.CompileOptions{})
	pask, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		_, err := RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	paskI, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		_, err := RunInterleaved(p, r, h.model, NewCategoricalCache(), false, Options{})
		return err
	})
	paskR, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		nc := NewNaiveCache()
		SeedResidents(nc, r.Lib)
		_, err := RunSequentialReuse(p, r, h.model, nc, Options{})
		return err
	})
	if pask >= paskI {
		t.Fatalf("PaSK (%v) should beat PaSK-I (%v) via reuse", pask, paskI)
	}
	if pask >= paskR {
		t.Fatalf("PaSK (%v) should beat PaSK-R (%v) via interleaving", pask, paskR)
	}
}

func TestSequentialReuseStats(t *testing.T) {
	h := newHarness(t, "vgg", 1, graphx.CompileOptions{})
	var res *Result
	_, _ = h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		nc := NewNaiveCache()
		SeedResidents(nc, r.Lib)
		res, err = RunSequentialReuse(p, r, h.model, nc, Options{})
		return err
	})
	if res.Cache.Queries == 0 {
		t.Fatal("PaSK-R made no queries")
	}
	if res.SkippedLoads == 0 {
		t.Fatal("PaSK-R skipped no loads on VGG")
	}
}

func TestCategoricalBeatsNaiveOnLookupsPerHit(t *testing.T) {
	h := newHarness(t, "res", 1, graphx.CompileOptions{})
	var cat, naive *Result
	h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		cat, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		nc := NewNaiveCache()
		SeedResidents(nc, r.Lib)
		naive, err = RunInterleaved(p, r, h.model, nc, true, Options{})
		return err
	})
	if cat.Cache.Hits == 0 || naive.Cache.Hits == 0 {
		t.Fatalf("expected hits in both: cat=%+v naive=%+v", cat.Cache, naive.Cache)
	}
	catLPH := float64(cat.Cache.Lookups) / float64(cat.Cache.Hits)
	naiveLPH := float64(naive.Cache.Lookups) / float64(naive.Cache.Hits)
	if catLPH > naiveLPH {
		t.Fatalf("categorical lookups/hit %.2f > naive %.2f (paper Fig 9b inverts this)", catLPH, naiveLPH)
	}
}

func TestBackgroundLoadingWarmsSecondRequest(t *testing.T) {
	h := newHarness(t, "vgg", 1, graphx.CompileOptions{})
	// One warm process serving two requests with an idle gap between them.
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), h.store, backend.HIP)
	runner := h.newRunner(rt, &metrics.Tracer{})
	var first, second time.Duration
	var loadedBG int
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		if err := runner.Lib.LoadResidents(p); err != nil {
			t.Error(err)
			return
		}
		cache := NewCategoricalCache()
		SeedResidents(cache, runner.Lib)
		t0 := p.Now()
		res, err := RunInterleaved(p, runner, h.model, cache, true, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		first = p.Now() - t0
		// Idle interval: background-load the skipped solutions.
		loadedBG, err = BackgroundLoad(p, runner, cache, res.Skipped, 2*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		t1 := p.Now()
		if _, err := RunInterleaved(p, runner, h.model, cache, true, Options{}); err != nil {
			t.Error(err)
			return
		}
		second = p.Now() - t1
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if loadedBG == 0 {
		t.Fatal("background loader had nothing to do")
	}
	if second >= first/2 {
		t.Fatalf("second request (%v) should be much faster than first (%v)", second, first)
	}
}

func TestBlasScopeHelpsTransformers(t *testing.T) {
	h := newHarness(t, "swin", 1, graphx.CompileOptions{})
	plain, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		_, err := RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	var res *Result
	scoped, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		res, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{BlasScope: true})
		return err
	})
	if scoped >= plain {
		t.Fatalf("BLAS scope (%v) should speed up ViT over default PaSK (%v)", scoped, plain)
	}
	if res.BlasSkipped == 0 {
		t.Fatal("BLAS scope skipped no GEMM loads")
	}
}

func TestInterleavedErrorPropagates(t *testing.T) {
	h := newHarness(t, "alex", 1, graphx.CompileOptions{})
	// Remove one required object so the loader fails mid-pipeline.
	removed := "ConvDirectTiledFwd_f32.pko" // conv1's selected solution
	breakObject(t, h.store, removed)
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), h.store, backend.HIP)
	runner := h.newRunner(rt, &metrics.Tracer{})
	var runErr error
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		// NoDegradation pins the historical fail-fast semantics; the default
		// path now absorbs load failures (TestDegradationSurvivesLoadFailure).
		_, runErr = RunInterleaved(p, runner, h.model, NewCategoricalCache(), true, Options{NoDegradation: true})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Fatal("corrupted object must surface as an error")
	}
}

func TestMilestoneGrowsWithModelSize(t *testing.T) {
	// The milestone is where parsing finishes relative to loading: models
	// with more instructions parse longer, so more layers load eagerly
	// (paper §III-A: "more opportunities ... to load before-m solutions").
	milestone := func(abbr string) int {
		h := newHarness(t, abbr, 1, graphx.CompileOptions{})
		var res *Result
		h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
			var err error
			res, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
			return err
		})
		return res.Milestone
	}
	small := milestone("alex")
	large := milestone("eff")
	if small < 1 {
		t.Fatalf("alex milestone = %d, want >= 1 (unconditional early loads)", small)
	}
	if large <= small {
		t.Fatalf("eff milestone (%d) should exceed alex milestone (%d)", large, small)
	}
}

func TestTransformElision(t *testing.T) {
	// ResNet's plan routes deep 1x1 convolutions through NHWC specialists
	// with interchange kernels around them; reuse of layout-agnostic
	// substitutes makes those transforms stale and elides their loads.
	h := newHarness(t, "res", 1, graphx.CompileOptions{})
	transforms := 0
	for i := range h.model.Instrs {
		if h.model.Instrs[i].Kind == graphx.KindTransform {
			transforms++
		}
	}
	if transforms == 0 {
		t.Skip("plan has no transforms to elide")
	}
	var res *Result
	_, runner := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		res, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	if res.SkippedTransforms == 0 {
		t.Fatalf("no transforms elided despite %d planned", transforms)
	}
	// Elided transforms' objects were never loaded.
	loadedXforms := 0
	for _, path := range h.store.Paths() {
		if runner.RT.Loaded(path) && len(path) > 5 && path[:5] == "xform" {
			loadedXforms++
		}
	}
	if loadedXforms+res.SkippedTransforms < transforms {
		t.Fatalf("loaded (%d) + skipped (%d) < planned (%d)", loadedXforms, res.SkippedTransforms, transforms)
	}
}

func TestPrecisionPreferenceFallsBackToF32(t *testing.T) {
	// An int8 plan whose activation specialists are absent: with the
	// extension, queries that miss at int8 are served by resident fp32
	// kernels instead of loading the int8 specialists.
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	spec, err := zooByAbbr(t, "alex")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	g.DType = tensor.I8
	m, err := graphx.Compile(g, miopen.NewPerfDB(reg), graphx.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := setUp(t, reg, m)
	var plain, pref *Result
	plainT, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		plain, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	prefT, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		pref, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{PrecisionPreference: true})
		return err
	})
	if pref.PrecisionFallbacks == 0 {
		t.Fatal("no precision fallbacks on an int8 plan")
	}
	if plain.PrecisionFallbacks != 0 {
		t.Fatal("fallbacks without the option enabled")
	}
	if prefT >= plainT {
		t.Fatalf("precision preference (%v) should beat plain PaSK (%v) on int8", prefT, plainT)
	}
}

func TestNoEagerPhaseSkipsMilestoneLoads(t *testing.T) {
	h := newHarness(t, "res", 1, graphx.CompileOptions{})
	var eager, selective *Result
	h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		eager, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		selective, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{NoEagerPhase: true})
		return err
	})
	if selective.Milestone != 0 {
		t.Fatalf("NoEagerPhase milestone = %d, want 0", selective.Milestone)
	}
	if eager.Milestone == 0 {
		t.Fatal("default run should have an eager phase")
	}
	if selective.SkippedLoads <= eager.SkippedLoads {
		t.Fatalf("selective-from-start should skip more loads: %d vs %d",
			selective.SkippedLoads, eager.SkippedLoads)
	}
}

func TestNoTransformElisionLoadsAllTransforms(t *testing.T) {
	h := newHarness(t, "res", 1, graphx.CompileOptions{})
	var with, without *Result
	withT, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		with, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	withoutT, _ := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		without, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{NoTransformElision: true})
		return err
	})
	if with.SkippedTransforms == 0 {
		t.Skip("no transforms elided on this plan")
	}
	if without.SkippedTransforms != 0 {
		t.Fatalf("elision disabled but %d transforms skipped", without.SkippedTransforms)
	}
	if withoutT < withT {
		t.Fatalf("disabling elision should not speed things up: %v vs %v", withoutT, withT)
	}
}

func TestRunWarmReuseSkipsParse(t *testing.T) {
	h := newHarness(t, "alex", 1, graphx.CompileOptions{})
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), h.store, backend.HIP)
	runner := h.newRunner(rt, &metrics.Tracer{})
	var coldT, warmSeq, warmNoParse time.Duration
	env.Spawn("main", func(p *sim.Proc) {
		defer gpu.CloseAll()
		if err := runner.Lib.LoadResidents(p); err != nil {
			t.Error(err)
			return
		}
		cache := NewCategoricalCache()
		SeedResidents(cache, runner.Lib)
		t0 := p.Now()
		if _, err := RunInterleaved(p, runner, h.model, cache, true, Options{}); err != nil {
			t.Error(err)
			return
		}
		coldT = p.Now() - t0
		t1 := p.Now()
		if _, err := RunSequentialReuse(p, runner, h.model, cache, Options{}); err != nil {
			t.Error(err)
			return
		}
		warmSeq = p.Now() - t1
		t2 := p.Now()
		if _, err := RunWarmReuse(p, runner, h.model, cache, Options{}); err != nil {
			t.Error(err)
			return
		}
		warmNoParse = p.Now() - t2
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !(warmNoParse < warmSeq && warmSeq < coldT) {
		t.Fatalf("expected warm-no-parse < warm-seq < cold: %v, %v, %v", warmNoParse, warmSeq, coldT)
	}
	// The difference is at least the parse time of the model.
	parse := device.DefaultHost().ModelOpen + time.Duration(h.model.NumInstructions())*device.DefaultHost().ParseInstr
	if warmSeq-warmNoParse < parse/2 {
		t.Fatalf("warm paths differ by %v, expected ~parse cost %v", warmSeq-warmNoParse, parse)
	}
}

// Run maps every scheme to its engine: only PaSK and PaSK-R consult the
// caller's cache and return a Result, and an unknown name is an error.
func TestRunSchemeMapping(t *testing.T) {
	h := newHarness(t, "alex", 1, graphx.CompileOptions{})
	for _, sch := range Schemes() {
		var res *Result
		var cache Cache
		h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
			var err error
			cache = NewCache(sch, r.Lib)
			res, err = Run(p, r, h.model, sch, cache, Options{})
			return err
		})
		if got := res != nil; got != sch.Reuses() {
			t.Errorf("%s: Result returned = %v, want %v", sch, got, sch.Reuses())
		}
		if _, naive := cache.(*NaiveCache); naive != (sch == SchemePaSKR) {
			t.Errorf("%s: NewCache built a naive cache = %v", sch, naive)
		}
		if queried := cache.Stats().Queries > 0; queried != sch.Reuses() {
			t.Errorf("%s: cache queried = %v, want %v", sch, queried, sch.Reuses())
		}
	}
	env := sim.NewEnv()
	var err error
	env.Spawn("main", func(p *sim.Proc) { _, err = Run(p, nil, h.model, "Bogus", nil, Options{}) })
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil || !strings.Contains(err.Error(), `"Bogus"`) {
		t.Fatalf("Run(Bogus) err = %v, want an error naming the scheme", err)
	}
}
