package blas

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/hip"
	"pask/internal/sim"
	"pask/internal/tensor"
)

func newTestLib(t testing.TB) (*sim.Env, *Library) {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := hip.NewRuntime(env, gpu, device.DefaultHost(), codeobj.NewStore())
	return env, NewLibrary(rt)
}

// materialize puts into lib's store every object that could serve p on
// lib's device.
func materialize(t testing.TB, lib *Library, p Problem) {
	t.Helper()
	objs := lib.RT.Store().Batch()
	Materialize(objs, lib.RT.GPU().Profile, []Problem{p})
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
}

func attnProblem() Problem {
	return Problem{M: 197, N: 768, K: 768, Batch: 1, DType: tensor.F32}
}

func TestProblemKeyAndWorkload(t *testing.T) {
	p := Problem{M: 64, N: 64, K: 64, Batch: 2, DType: tensor.F16}
	q := p
	q.TransB = true
	if p.Key() == q.Key() {
		t.Fatal("transpose must be in key")
	}
	w := p.Workload()
	if w.Flops != 2*2*64*64*64 {
		t.Fatalf("flops = %d", w.Flops)
	}
	bad := Problem{}
	if bad.Valid() {
		t.Fatal("zero problem must be invalid")
	}
}

func TestFindRanking(t *testing.T) {
	_, lib := newTestLib(t)
	// Aligned problem: Xdlops fastest.
	p := Problem{M: 256, N: 768, K: 768, Batch: 1, DType: tensor.F32}
	ranked := lib.Find(&p)
	if len(ranked) != 3 {
		t.Fatalf("got %d kernels", len(ranked))
	}
	if ranked[0].Inst.Kern.ID != "GemmXdlopsTiled" {
		t.Fatalf("best = %s", ranked[0].Inst.Kern.ID)
	}
	// Misaligned K: Xdlops out.
	p2 := Problem{M: 197, N: 768, K: 763, Batch: 1, DType: tensor.F32}
	for _, r := range lib.Find(&p2) {
		if r.Inst.Kern.ID == "GemmXdlopsTiled" {
			t.Fatal("Xdlops must reject misaligned K")
		}
	}
	// Naive is always available.
	p3 := Problem{M: 1, N: 3, K: 5, Batch: 1, TransA: true, DType: tensor.I8}
	ranked = lib.Find(&p3)
	if len(ranked) != 1 || ranked[0].Inst.Kern.ID != "GemmNaive" {
		t.Fatalf("fallback ranking = %+v", ranked)
	}
}

// TestFindMemoKeyedByProblemValue pins the find memo's key: equal problem
// values share one entry whatever pointer they arrive through, a transpose
// or element-type difference gets its own, and every entry is what a fresh
// ranking gives.
func TestFindMemoKeyedByProblemValue(t *testing.T) {
	_, lib := newTestLib(t)
	p := Problem{M: 256, N: 768, K: 768, Batch: 1, DType: tensor.F32}
	same := p
	r1, r2 := lib.Find(&p), lib.Find(&same)
	if len(lib.find) != 1 || &r1[0] != &r2[0] {
		t.Fatalf("equal problems: %d memo entries, shared result %v; want 1, true", len(lib.find), &r1[0] == &r2[0])
	}
	transB, f16 := p, p
	transB.TransB = true
	f16.DType = tensor.F16
	for _, q := range []*Problem{&p, &transB, &f16} {
		if got, want := lib.Find(q), rank(lib.kernels, lib.RT.GPU().Profile, q); !reflect.DeepEqual(got, want) {
			t.Errorf("Find(%s) = %+v, want a fresh ranking %+v", q.Key(), got, want)
		}
	}
	if len(lib.find) != 3 {
		t.Fatalf("memo entries = %d, want 3 (TransB and DType are part of the key)", len(lib.find))
	}
	if allocs := testing.AllocsPerRun(100, func() { lib.Find(&same) }); allocs != 0 {
		t.Errorf("memo hit allocates %v times, want 0", allocs)
	}
	inst := r1[0].Inst
	if allocs := testing.AllocsPerRun(100, func() { _, _ = inst.Path(), inst.Symbol() }); allocs != 0 {
		t.Errorf("Path and Symbol allocate %v times, want 0", allocs)
	}
}

func TestNoMatrixPipesOnNavi(t *testing.T) {
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.RX6900XT())
	rt := hip.NewRuntime(env, gpu, device.DefaultHost(), codeobj.NewStore())
	lib := NewLibrary(rt)
	p := Problem{M: 256, N: 256, K: 256, Batch: 1, DType: tensor.F32}
	for _, r := range lib.Find(&p) {
		if r.Inst.Kern.ID == "GemmXdlopsTiled" {
			t.Fatal("Xdlops must be rejected on gfx1030")
		}
	}
}

func TestInstancePathsAndBindings(t *testing.T) {
	p := Problem{M: 256, N: 768, K: 768, Batch: 1, DType: tensor.F16}
	for _, k := range Kernels() {
		inst := newInstance(k, k.Binding(&p))
		if k.ID == "GemmNaive" && inst.Path() != "blas_GemmNaive.pko" {
			t.Fatalf("naive path = %s", inst.Path())
		}
		if k.ID == "GemmXdlopsTiled" && inst.Path() != "blas_GemmXdlopsTiled_m256n512_f16.pko" {
			t.Fatalf("xdlops path = %s", inst.Path())
		}
	}
	// Binding identity gates instance applicability.
	xd := Kernels()[2]
	inst := newInstance(xd, xd.Binding(&p))
	other := Problem{M: 32, N: 32, K: 32, Batch: 1, DType: tensor.F16}
	if inst.Applicable(device.MI100(), &other) {
		t.Fatal("different bucket must not reuse the instance")
	}
}

func TestRunLazyLoadsAndLaunches(t *testing.T) {
	env, lib := newTestLib(t)
	p := attnProblem()
	materialize(t, lib, p)
	var loadedDuringRun bool
	var execTime time.Duration
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		start := proc.Now()
		if err := lib.Run(proc, stream, &p); err != nil {
			t.Error(err)
			return
		}
		loadedDuringRun = lib.RT.Stats().ModuleLoads == 2 && lib.RT.Loaded(CoreObjectPath)
		stream.Synchronize(proc)
		execTime = proc.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !loadedDuringRun {
		t.Fatal("Run must lazily load the core archive and the kernel object")
	}
	if execTime <= 0 {
		t.Fatal("no time elapsed")
	}
	if lib.Runs() != 1 {
		t.Fatalf("Runs = %d", lib.Runs())
	}
}

func TestRunSecondCallSkipsLoad(t *testing.T) {
	env, lib := newTestLib(t)
	p := attnProblem()
	materialize(t, lib, p)
	var firstDur, secondDur time.Duration
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		t0 := proc.Now()
		if err := lib.Run(proc, stream, &p); err != nil {
			t.Error(err)
			return
		}
		stream.Synchronize(proc)
		firstDur = proc.Now() - t0
		t1 := proc.Now()
		if err := lib.Run(proc, stream, &p); err != nil {
			t.Error(err)
			return
		}
		stream.Synchronize(proc)
		secondDur = proc.Now() - t1
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if secondDur >= firstDur {
		t.Fatalf("warm run (%v) not faster than cold run (%v)", secondDur, firstDur)
	}
}

// TestRunWarmAllocatesNothing pins the warm GEMM path: a find-memo hit, the
// reuse of the bound core archive and instance function, and a launch
// without a completion signal allocate nothing.
func TestRunWarmAllocatesNothing(t *testing.T) {
	env, lib := newTestLib(t)
	p := attnProblem()
	materialize(t, lib, p)
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		// Grow the stream's queue past what the measured launches keep in
		// flight, so its ring never reallocates inside the measurement.
		for i := 0; i < 1024; i++ {
			stream.Launch(proc, "prewarm", time.Millisecond)
		}
		if err := lib.Run(proc, stream, &p); err != nil {
			t.Error(err)
			return
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := lib.Run(proc, stream, &p); err != nil {
				t.Error(err)
			}
		})
		stream.Synchronize(proc)
		if allocs != 0 {
			t.Errorf("warm Run allocates %v times, want 0", allocs)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunInstanceRejectsInapplicable(t *testing.T) {
	env, lib := newTestLib(t)
	p := Problem{M: 256, N: 768, K: 768, Batch: 1, DType: tensor.F32}
	materialize(t, lib, p)
	wrong := newInstance(Kernels()[2], "m32n32_f16") // wrong binding
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		if err := lib.RunInstance(proc, lib.RT.GPU().DefaultStream(), &p, wrong); !errors.Is(err, ErrNotApplicable) {
			t.Errorf("RunInstance(%s) = %v, want ErrNotApplicable", wrong.Path(), err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunFunctionalMatchesGemm(t *testing.T) {
	p := Problem{M: 2, N: 2, K: 2, Batch: 1, DType: tensor.F32}
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	if err := RunFunctional(&p, a, b, c); err != nil {
		t.Fatal(err)
	}
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	bad := Problem{}
	if err := RunFunctional(&bad, nil, nil, nil); err == nil {
		t.Fatal("invalid problem must error")
	}
}

func TestRunFallsBackOnLoadFailure(t *testing.T) {
	env, lib := newTestLib(t)
	// Aligned problem: three ranked kernels, room to degrade.
	p := Problem{M: 256, N: 768, K: 768, Batch: 1, DType: tensor.F32}
	materialize(t, lib, p)
	ranked := lib.Find(&p)
	if len(ranked) < 2 {
		t.Fatalf("need at least two kernels, got %d", len(ranked))
	}
	if err := lib.RT.Store().Truncate(ranked[0].Inst.Path(), 4); err != nil {
		t.Fatal(err)
	}
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		if err := lib.Run(proc, stream, &p); err != nil {
			t.Errorf("Run did not degrade past the broken object: %v", err)
			return
		}
		stream.Synchronize(proc)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if lib.Fallbacks() != 1 {
		t.Fatalf("Fallbacks = %d, want 1", lib.Fallbacks())
	}
	if !lib.RT.FailedPermanently(ranked[0].Inst.Path()) {
		t.Fatal("broken object must be negatively cached")
	}
}

func TestRunFailsWhenLadderExhausted(t *testing.T) {
	env, lib := newTestLib(t)
	// Odd int8 problem: only the naive kernel applies.
	p := Problem{M: 1, N: 3, K: 5, Batch: 1, TransA: true, DType: tensor.I8}
	materialize(t, lib, p)
	ranked := lib.Find(&p)
	if len(ranked) != 1 {
		t.Fatalf("want a single-kernel ladder, got %d", len(ranked))
	}
	if err := lib.RT.Store().Truncate(ranked[0].Inst.Path(), 4); err != nil {
		t.Fatal(err)
	}
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		if err := lib.Run(proc, lib.RT.GPU().DefaultStream(), &p); err == nil {
			t.Error("Run succeeded with every applicable object broken")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
