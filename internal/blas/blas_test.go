package blas

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
	"pask/internal/tensor"
)

func newTestLib(t testing.TB) (*sim.Env, *Library) {
	t.Helper()
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), codeobj.NewStore(), backend.HIP)
	return env, NewLibrary(NewRegistry(gpu.Profile), rt)
}

// materialize puts into lib's store every object that could serve p on
// lib's device.
func materialize(t testing.TB, lib *Library, p Problem) {
	t.Helper()
	objs := lib.RT.Store().Batch()
	Materialize(objs, []*Interned{lib.Reg.Intern(&p)})
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
}

// breakObject stores the first 4 bytes of the object at path in its place.
func breakObject(t *testing.T, store *codeobj.Store, path string) {
	t.Helper()
	data, err := store.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(path, data[:4])
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
	ranked := lib.Find(lib.Reg.Intern(&p))
	if len(ranked) != 3 {
		t.Fatalf("got %d kernels", len(ranked))
	}
	if ranked[0].Inst.Kern.ID != "GemmXdlopsTiled" {
		t.Fatalf("best = %s", ranked[0].Inst.Kern.ID)
	}
	// Misaligned K: Xdlops out.
	p2 := Problem{M: 197, N: 768, K: 763, Batch: 1, DType: tensor.F32}
	for _, r := range lib.Find(lib.Reg.Intern(&p2)) {
		if r.Inst.Kern.ID == "GemmXdlopsTiled" {
			t.Fatal("Xdlops must reject misaligned K")
		}
	}
	// Naive is always available.
	p3 := Problem{M: 1, N: 3, K: 5, Batch: 1, TransA: true, DType: tensor.I8}
	ranked = lib.Find(lib.Reg.Intern(&p3))
	if len(ranked) != 1 || ranked[0].Inst.Kern.ID != "GemmNaive" {
		t.Fatalf("fallback ranking = %+v", ranked)
	}
}

// TestFindMemoKeyedByProblemValue pins the find memo's key: equal problem
// values intern to one record whatever pointer they arrive through, a
// transpose or element-type difference gets its own, and every record's
// ranking is what a fresh ranking gives.
func TestFindMemoKeyedByProblemValue(t *testing.T) {
	_, lib := newTestLib(t)
	p := Problem{M: 256, N: 768, K: 768, Batch: 1, DType: tensor.F32}
	same := p
	ip, isame := lib.Reg.Intern(&p), lib.Reg.Intern(&same)
	r1, r2 := lib.Find(ip), lib.Find(isame)
	if ip != isame || len(lib.Reg.interned) != 1 || &r1[0] != &r2[0] {
		t.Fatalf("equal problems: %d records, shared result %v; want 1, true", len(lib.Reg.interned), &r1[0] == &r2[0])
	}
	transB, f16 := p, p
	transB.TransB = true
	f16.DType = tensor.F16
	for _, q := range []*Problem{&p, &transB, &f16} {
		if got, want := lib.Find(lib.Reg.Intern(q)), rank(lib.Reg.kernels, lib.RT.GPU().Profile, q); !reflect.DeepEqual(got, want) {
			t.Errorf("Find(%s) = %+v, want a fresh ranking %+v", q.Key(), got, want)
		}
	}
	if len(lib.Reg.interned) != 3 {
		t.Fatalf("records = %d, want 3 (TransB and DType are part of the key)", len(lib.Reg.interned))
	}
	if allocs := testing.AllocsPerRun(100, func() { lib.Find(lib.Reg.Intern(&same)) }); allocs != 0 {
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
	rt := backend.New(env, gpu, device.DefaultHost(), codeobj.NewStore(), backend.HIP)
	lib := NewLibrary(NewRegistry(gpu.Profile), rt)
	p := Problem{M: 256, N: 256, K: 256, Batch: 1, DType: tensor.F32}
	for _, r := range lib.Find(lib.Reg.Intern(&p)) {
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
	var launched []string
	lib.RT.GPU().OnKernel = func(name string, _, _ time.Duration) { launched = append(launched, name) }
	var loadedDuringRun bool
	var execTime time.Duration
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		start := proc.Now()
		if err := lib.Run(proc, stream, lib.Reg.Intern(&p)); err != nil {
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
	if best := lib.Find(lib.Reg.Intern(&p))[0].Inst.Symbol(); len(launched) != 1 || launched[0] != best {
		t.Fatalf("launched %v, want the best instance's %s once", launched, best)
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
		if err := lib.Run(proc, stream, lib.Reg.Intern(&p)); err != nil {
			t.Error(err)
			return
		}
		stream.Synchronize(proc)
		firstDur = proc.Now() - t0
		t1 := proc.Now()
		if err := lib.Run(proc, stream, lib.Reg.Intern(&p)); err != nil {
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

// TestRunWarmAllocatesNothing pins the warm GEMM path: the shared ranking, the
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
		if err := lib.Run(proc, stream, lib.Reg.Intern(&p)); err != nil {
			t.Error(err)
			return
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := lib.Run(proc, stream, lib.Reg.Intern(&p)); err != nil {
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

func TestRunFallsBackOnLoadFailure(t *testing.T) {
	env, lib := newTestLib(t)
	// Aligned problem: three ranked kernels, room to degrade.
	p := Problem{M: 256, N: 768, K: 768, Batch: 1, DType: tensor.F32}
	materialize(t, lib, p)
	ranked := lib.Find(lib.Reg.Intern(&p))
	if len(ranked) < 2 {
		t.Fatalf("need at least two kernels, got %d", len(ranked))
	}
	breakObject(t, lib.RT.Store(), ranked[0].Inst.Path())
	var launched []string
	lib.RT.GPU().OnKernel = func(name string, _, _ time.Duration) { launched = append(launched, name) }
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		stream := lib.RT.GPU().DefaultStream()
		if err := lib.Run(proc, stream, lib.Reg.Intern(&p)); err != nil {
			t.Errorf("Run did not degrade past the broken object: %v", err)
			return
		}
		stream.Synchronize(proc)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if next := ranked[1].Inst.Symbol(); len(launched) != 1 || launched[0] != next {
		t.Fatalf("launched %v, want the second-ranked instance's %s once", launched, next)
	}
	if st := lib.RT.Stats(); st.PermanentFailures != 1 {
		t.Fatalf("PermanentFailures = %d, want 1: the broken object must be negatively cached", st.PermanentFailures)
	}
}

func TestRunFailsWhenLadderExhausted(t *testing.T) {
	env, lib := newTestLib(t)
	// Odd int8 problem: only the naive kernel applies.
	p := Problem{M: 1, N: 3, K: 5, Batch: 1, TransA: true, DType: tensor.I8}
	materialize(t, lib, p)
	ranked := lib.Find(lib.Reg.Intern(&p))
	if len(ranked) != 1 {
		t.Fatalf("want a single-kernel ladder, got %d", len(ranked))
	}
	breakObject(t, lib.RT.Store(), ranked[0].Inst.Path())
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		if err := lib.Run(proc, lib.RT.GPU().DefaultStream(), lib.Reg.Intern(&p)); err == nil {
			t.Error("Run succeeded with every applicable object broken")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestInternedGemmRankingShared runs concurrent processes of one set-up:
// each interns the same GEMM problems in its own order and finds them. The
// registry must hold one record per problem, every process must get the
// same backing array for a problem, and that ranking must equal a fresh
// rank. Run it under -race.
func TestInternedGemmRankingShared(t *testing.T) {
	reg := NewRegistry(device.MI100())
	probs := []Problem{
		attnProblem(),
		{M: 256, N: 768, K: 768, Batch: 1, DType: tensor.F32},
		{M: 256, N: 768, K: 768, Batch: 1, TransB: true, DType: tensor.F32},
		{M: 64, N: 64, K: 64, Batch: 12, DType: tensor.F16},
		{M: 1, N: 3, K: 5, Batch: 1, TransA: true, DType: tensor.I8},
	}
	const procs = 4
	got := make([][]*Ranked, procs)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env := sim.NewEnv()
			gpu := device.NewGPU(env, device.MI100())
			lib := NewLibrary(reg, backend.New(env, gpu, device.DefaultHost(), codeobj.NewStore(), backend.HIP))
			got[g] = make([]*Ranked, len(probs))
			for k := range probs {
				i := (g + k) % len(probs)
				got[g][i] = &lib.Find(lib.Reg.Intern(&probs[i]))[0]
			}
		}(g)
	}
	wg.Wait()
	if len(reg.interned) != len(probs) {
		t.Fatalf("%d records for %d problems", len(reg.interned), len(probs))
	}
	for i := range probs {
		ip := reg.Intern(&probs[i])
		for g := range got {
			if got[g][i] != &ip.ranked[0] {
				t.Errorf("process %d, %s: ranking not the set-up's shared array", g, probs[i].Key())
			}
		}
		if want := rank(reg.kernels, reg.dev, &probs[i]); !reflect.DeepEqual(ip.ranked, want) {
			t.Errorf("%s: shared ranking %+v, fresh rank %+v", probs[i].Key(), ip.ranked, want)
		}
	}
}
