package graphx

import (
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/blas"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/onnx"
	"pask/internal/onnx/zoo"
	"pask/internal/sim"
	"pask/internal/tensor"
	"pask/internal/trace"
)

func compileZoo(t testing.TB, abbr string, batch int, reg *miopen.Registry, opts CompileOptions) *CompiledModel {
	t.Helper()
	spec, err := zoo.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(batch)
	if err != nil {
		t.Fatal(err)
	}
	db := miopen.NewPerfDB(reg)
	m, err := Compile(g, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompileAllZooModels(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	for _, spec := range zoo.Models() {
		spec := spec
		t.Run(spec.Abbr, func(t *testing.T) {
			m := compileZoo(t, spec.Abbr, 1, reg, CompileOptions{})
			if m.NumInstructions() == 0 {
				t.Fatal("no instructions")
			}
			if m.PrimitiveCount() == 0 {
				t.Fatal("no primitive instructions")
			}
			paths, err := m.DistinctObjects(reg)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) == 0 {
				t.Fatal("no code objects in plan")
			}
		})
	}
}

func TestTransformersHaveOnePrimitiveConv(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	for _, abbr := range []string{"vit", "swin", "swin2"} {
		m := compileZoo(t, abbr, 1, reg, CompileOptions{})
		convs := 0
		gemms := 0
		for i := range m.Instrs {
			switch m.Instrs[i].Kind {
			case KindPrimitive:
				if m.Instrs[i].Problem.Primitive == miopen.Convolution {
					convs++
				}
			case KindGemm:
				gemms++
			}
		}
		if convs != 1 {
			t.Errorf("%s: %d primitive convs, want 1", abbr, convs)
		}
		if gemms < 20 {
			t.Errorf("%s: only %d gemms", abbr, gemms)
		}
	}
}

func TestDefaultModeInsertsTransforms(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "res", 1, reg, CompileOptions{})
	transforms := 0
	for i := range m.Instrs {
		if m.Instrs[i].Kind == KindTransform {
			transforms++
		}
	}
	if transforms == 0 {
		t.Fatal("default selection should mix layouts and insert transforms")
	}
}

func TestUniformModeHasNoTransforms(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	for _, abbr := range []string{"res", "reg", "eff", "vgg"} {
		m := compileZoo(t, abbr, 1, reg, CompileOptions{Mode: SelectUniformLayout})
		for i := range m.Instrs {
			if m.Instrs[i].Kind == KindTransform {
				t.Fatalf("%s: uniform-layout plan contains transform %s", abbr, m.Instrs[i].Name)
			}
		}
	}
}

func TestOptimizePasses(t *testing.T) {
	b := onnx.NewBuilder("p", tensor.Shape{N: 1, C: 3, H: 16, W: 16}, tensor.F32)
	x := b.Conv("c1", b.Input(), 8, 3, 1, 1, 1)
	x = b.BatchNorm("bn1", x) // foldable
	x = b.Relu("r1", x)
	// Two identical convs from the same input: CSE should merge them.
	y1 := b.Conv("dup_a", x, 8, 1, 1, 0, 1)
	_ = b.Conv("dead", x, 4, 1, 1, 0, 1) // dead: never used
	g, err := b.Finish(y1)
	if err != nil {
		t.Fatal(err)
	}
	before := g.NumOps()
	stats := Optimize(g)
	if stats.FoldedBatchNorm != 1 {
		t.Fatalf("bn folds = %d", stats.FoldedBatchNorm)
	}
	if stats.DeadNodes < 1 {
		t.Fatalf("dead nodes = %d", stats.DeadNodes)
	}
	if stats.DeadInits < 2 {
		t.Fatalf("dead inits = %d", stats.DeadInits)
	}
	if g.NumOps() >= before {
		t.Fatal("optimize did not shrink the graph")
	}
	if _, err := g.InferShapes(); err != nil {
		t.Fatalf("optimized graph invalid: %v", err)
	}
}

func TestCSEMergesDuplicateBranches(t *testing.T) {
	b := onnx.NewBuilder("p", tensor.Shape{N: 1, C: 4, H: 8, W: 8}, tensor.F32)
	a1 := b.Relu("r1", b.Input())
	a2 := b.Relu("r2", b.Input()) // identical computation
	out := b.Add("sum", a1, a2)
	g, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(g)
	if stats.MergedCommonSubexp != 1 {
		t.Fatalf("cse merges = %d, want 1", stats.MergedCommonSubexp)
	}
	if _, err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
}

// setup is one set-up of compiled models: the primitive registry they were
// compiled against, the GEMM registry they are materialized for and the
// store holding their code objects.
type setup struct {
	reg   *miopen.Registry
	breg  *blas.Registry
	store *codeobj.Store
}

// materialize returns a set-up whose store holds every code object m can
// load on an MI100, BLAS objects included.
func materialize(t testing.TB, reg *miopen.Registry, m *CompiledModel) *setup {
	t.Helper()
	su := &setup{reg: reg, breg: blas.NewRegistry(device.MI100()), store: codeobj.NewStore()}
	objs := su.store.Batch()
	if err := MaterializeModel(objs, reg, su.breg, m); err != nil {
		t.Fatal(err)
	}
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	return su
}

// newRunner returns a runner of one process of the set-up on rt.
func (su *setup) newRunner(rt *backend.Registry, tracer *metrics.Tracer) *Runner {
	return NewRunner(rt, miopen.NewLibrary(su.reg, rt), blas.NewLibrary(su.breg, rt), tracer)
}

// newProcess returns a fresh MI100 process of the set-up: its environment
// and a runner whose tracer's spans reach the returned recorder.
func newProcess(t *testing.T, su *setup) (*sim.Env, *Runner, *trace.Recorder) {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), su.store, backend.HIP)
	rec := trace.New()
	tracer := metrics.NewForwardingTracer()
	tracer.SetObserver(rec)
	return env, su.newRunner(rt, tracer), rec
}

func TestBaselineRunsAllModelsEndToEnd(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	for _, spec := range zoo.Models() {
		spec := spec
		t.Run(spec.Abbr, func(t *testing.T) {
			m := compileZoo(t, spec.Abbr, 1, reg, CompileOptions{})
			su := materialize(t, reg, m)
			env, runner, _ := newProcess(t, su)
			var runErr error
			env.Spawn("host", func(p *sim.Proc) {
				defer runner.RT.GPU().CloseAll()
				runErr = runner.RunBaseline(p, m)
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			if runner.RT.Stats().ModuleLoads == 0 {
				t.Fatal("cold baseline must load code objects")
			}
			if runner.RT.GPU().BusyTime() <= 0 {
				t.Fatal("GPU never ran")
			}
		})
	}
}

func TestHotRunMuchFasterThanCold(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "res", 1, reg, CompileOptions{})
	su := materialize(t, reg, m)
	env, runner, _ := newProcess(t, su)
	var cold, hot time.Duration
	env.Spawn("host", func(p *sim.Proc) {
		defer runner.RT.GPU().CloseAll()
		t0 := p.Now()
		if err := runner.RunBaseline(p, m); err != nil {
			t.Error(err)
			return
		}
		cold = p.Now() - t0
		t1 := p.Now()
		if err := runner.RunHot(p, m); err != nil {
			t.Error(err)
			return
		}
		hot = p.Now() - t1
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(cold) / float64(hot)
	if ratio < 5 {
		t.Fatalf("cold/hot = %.1f, expected a large cold-start penalty (cold=%v hot=%v)", ratio, cold, hot)
	}
}

func TestIdealPreloadRemovesLoadTime(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "res", 1, reg, CompileOptions{})
	su := materialize(t, reg, m)
	env, runner, _ := newProcess(t, su)
	var idealTime time.Duration
	env.Spawn("host", func(p *sim.Proc) {
		defer runner.RT.GPU().CloseAll()
		if err := runner.PreloadAll(p, m); err != nil {
			t.Error(err)
			return
		}
		loadsBefore := runner.RT.Stats().ModuleLoads
		t0 := p.Now()
		if err := runner.RunBaseline(p, m); err != nil {
			t.Error(err)
			return
		}
		idealTime = p.Now() - t0
		if runner.RT.Stats().ModuleLoads != loadsBefore {
			t.Errorf("ideal run still loaded %d objects", runner.RT.Stats().ModuleLoads-loadsBefore)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if idealTime <= 0 {
		t.Fatal("no time measured")
	}
}

func TestTracerCollectsAllCategories(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "alex", 1, reg, CompileOptions{})
	su := materialize(t, reg, m)
	env, runner, rec := newProcess(t, su)
	env.Spawn("host", func(p *sim.Proc) {
		defer runner.RT.GPU().CloseAll()
		if err := runner.RunBaseline(p, m); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	total := map[metrics.Category]time.Duration{} // raw span time, overlaps included
	for _, s := range rec.Spans() {
		total[s.Cat] += s.End - s.Start
	}
	for _, cat := range []metrics.Category{metrics.CatParse, metrics.CatLoad, metrics.CatExec, metrics.CatCopy, metrics.CatLaunch, metrics.CatSync} {
		if _, ok := total[cat]; !ok {
			t.Errorf("no %s spans recorded", cat)
		}
	}
	// In a reactive cold start, loading dominates execution (paper Fig 1b).
	if total[metrics.CatLoad] < 5*total[metrics.CatExec] {
		t.Errorf("load (%v) should dominate exec (%v) at batch 1", total[metrics.CatLoad], total[metrics.CatExec])
	}
}

func TestDistinctObjectsStable(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "vgg", 1, reg, CompileOptions{})
	a, err := m.DistinctObjects(reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.DistinctObjects(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("DistinctObjects not deterministic")
	}
	seen := map[string]bool{}
	for _, p := range a {
		if seen[p] {
			t.Fatalf("duplicate path %s", p)
		}
		seen[p] = true
	}
}

// TestLoweringStatisticsPinned pins the zoo's lowering statistics: any
// change to the solution ladder, the passes or the zoo architectures that
// shifts these numbers should be a conscious decision (they calibrate the
// reproduction against the paper's Table I).
func TestLoweringStatisticsPinned(t *testing.T) {
	want := map[string]struct{ instrs, primitive, distinct int }{
		"alex":  {19, 18, 16},
		"vgg":   {37, 36, 23},
		"res":   {93, 72, 19},
		"reg":   {192, 162, 52},
		"eff":   {738, 548, 105},
		"rcnn":  {80, 62, 45},
		"ssd":   {84, 63, 51},
		"fcn":   {43, 34, 29},
		"unet":  {53, 45, 28},
		"vit":   {172, 1, 1},
		"swin":  {178, 1, 1},
		"swin2": {178, 1, 1},
	}
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	for abbr, w := range want {
		m := compileZoo(t, abbr, 1, reg, CompileOptions{})
		if m.NumInstructions() != w.instrs || m.PrimitiveCount() != w.primitive ||
			m.DistinctPrimitiveProblems() != w.distinct {
			t.Errorf("%s: instrs/primitive/distinct = %d/%d/%d, pinned %d/%d/%d",
				abbr, m.NumInstructions(), m.PrimitiveCount(), m.DistinctPrimitiveProblems(),
				w.instrs, w.primitive, w.distinct)
		}
	}
}

// TestWarmExecInstrAllocatesNothing pins the warm launch of builtin and
// transform instructions: once a request has run, ExecInstr reuses the
// function bound per instruction and launches without a completion signal,
// allocating nothing under the forwarding tracer serving uses.
func TestWarmExecInstrAllocatesNothing(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	m := compileZoo(t, "res", 1, reg, CompileOptions{})
	var builtin, xform *Instruction
	for i := range m.Instrs {
		switch in := &m.Instrs[i]; {
		case in.Kind == KindBuiltin && builtin == nil:
			builtin = in
		case in.Kind == KindTransform && xform == nil:
			xform = in
		}
	}
	if builtin == nil || xform == nil {
		t.Fatal("res must have a builtin and a transform instruction")
	}
	su := materialize(t, reg, m)
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), su.store, backend.HIP)
	runner := su.newRunner(rt, metrics.NewForwardingTracer())
	env.Spawn("host", func(p *sim.Proc) {
		defer gpu.CloseAll()
		// Grow the stream's queue past what the measured launches keep in
		// flight, so its ring never reallocates inside the measurement.
		for i := 0; i < 1024; i++ {
			runner.Stream.Launch(p, "prewarm", time.Millisecond)
		}
		if err := runner.RunBaseline(p, m); err != nil {
			t.Error(err)
			return
		}
		for _, in := range []*Instruction{builtin, xform} {
			allocs := testing.AllocsPerRun(100, func() {
				if err := runner.ExecInstr(p, in); err != nil {
					t.Error(err)
				}
			})
			runner.Stream.Synchronize(p)
			if allocs != 0 {
				t.Errorf("%s %s: warm ExecInstr allocates %v times, want 0", in.Kind, in.Name, allocs)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
