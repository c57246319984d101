package miopen

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/kernels"
	"pask/internal/tensor"
)

func testCtx() *Ctx { return NewCtx(device.MI100()) }

func sh(n, c, h, w int) tensor.Shape { return tensor.Shape{N: n, C: c, H: h, W: w} }

func conv3x3(c, k, hw int) Problem {
	return NewConvProblem(sh(1, c, hw, hw), k, 3, 3,
		kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1},
		1, tensor.F32, tensor.NCHW)
}

func TestProblemKeyDistinguishes(t *testing.T) {
	a := conv3x3(64, 64, 56)
	b := conv3x3(64, 128, 56)
	c := a
	if a.Key() == b.Key() {
		t.Fatal("different problems share a key")
	}
	if a.Key() != c.Key() {
		t.Fatal("identical problems have different keys")
	}
	d := a
	d.DType = tensor.F16
	if a.Key() == d.Key() {
		t.Fatal("dtype must be part of the key")
	}
}

func TestProblemValidation(t *testing.T) {
	good := conv3x3(8, 8, 16)
	if !good.Valid() {
		t.Fatal("valid problem rejected")
	}
	bad := good
	bad.Groups = 3 // 8 % 3 != 0
	if bad.Valid() {
		t.Fatal("invalid groups accepted")
	}
	neg := good
	neg.K = 0
	if neg.Valid() {
		t.Fatal("zero filters accepted")
	}
	shrunk := good
	shrunk.In.H = 1
	shrunk.Conv.PadH = 0
	if shrunk.Valid() {
		t.Fatal("non-positive output accepted")
	}
}

func TestProblemOutShapeAndWeights(t *testing.T) {
	p := NewConvProblem(sh(2, 16, 32, 32), 8, 3, 3,
		kernels.Conv2DParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, DilH: 1, DilW: 1},
		1, tensor.F32, tensor.NCHW)
	if got := p.OutShape(); got != sh(2, 8, 16, 16) {
		t.Fatalf("OutShape = %v", got)
	}
	pool := NewPoolProblem(sh(1, 8, 8, 8), kernels.Pool2DParams{WinH: 2, WinW: 2, StrideH: 2, StrideW: 2}, kernels.MaxPool, tensor.F32, tensor.NCHW)
	if got := pool.OutShape(); got != sh(1, 8, 4, 4) {
		t.Fatalf("pool OutShape = %v", got)
	}
	act := NewActProblem(sh(1, 8, 8, 8), kernels.ReLU, 0, tensor.F32, tensor.NCHW)
	if got := act.OutShape(); got != act.In {
		t.Fatalf("act OutShape = %v", got)
	}
}

func TestEveryConvProblemHasFallback(t *testing.T) {
	reg := NewRegistry(testCtx())
	// Awkward geometries that defeat every specialist.
	problems := []Problem{
		NewConvProblem(sh(1, 3, 7, 7), 5, 4, 2, kernels.Conv2DParams{StrideH: 3, StrideW: 1, PadH: 2, PadW: 0, DilH: 2, DilW: 1}, 1, tensor.I8, tensor.NHWC),
		NewConvProblem(sh(1, 6, 9, 9), 6, 3, 3, kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, 3, tensor.F16, tensor.NCHW),
		NewConvProblem(sh(1, 1, 224, 1), 2, 5, 1, kernels.Conv2DParams{StrideH: 2, StrideW: 1, PadH: 0, PadW: 0, DilH: 1, DilW: 1}, 1, tensor.F32, tensor.NCHW),
	}
	for _, p := range problems {
		if _, err := reg.FindBest(&p); err != nil {
			t.Errorf("no solution for %s: %v", p.Key(), err)
		}
	}
}

func TestFindRanksSpecialistsFirstInSweetSpot(t *testing.T) {
	reg := NewRegistry(testCtx())
	p := conv3x3(256, 256, 28) // deep-layer sweet spot
	ranked := reg.Find(&p)
	if len(ranked) < 3 {
		t.Fatalf("expected several applicable solutions, got %d", len(ranked))
	}
	if got := ranked[0].Inst.Sol.ID(); got != "ConvBinWinogradFwdFixed" {
		t.Fatalf("best = %s, want ConvBinWinogradFwdFixed", got)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Est < ranked[i-1].Est {
			t.Fatal("ranking not sorted by estimate")
		}
	}
}

func TestFirstLayerPicksDirectTiled(t *testing.T) {
	reg := NewRegistry(testCtx())
	p := NewConvProblem(sh(1, 3, 224, 224), 64, 7, 7,
		kernels.Conv2DParams{StrideH: 2, StrideW: 2, PadH: 3, PadW: 3, DilH: 1, DilW: 1},
		1, tensor.F32, tensor.NCHW)
	best, err := reg.FindBest(&p)
	if err != nil {
		t.Fatal(err)
	}
	if best.Inst.Sol.ID() != "ConvDirectTiledFwd" {
		t.Fatalf("best = %s, want ConvDirectTiledFwd", best.Inst.Sol.ID())
	}
}

func TestLargeSpatial3x3PicksMidTierWinograd(t *testing.T) {
	reg := NewRegistry(testCtx())
	p := conv3x3(64, 64, 224) // too big for the fixed specialist
	best, err := reg.FindBest(&p)
	if err != nil {
		t.Fatal(err)
	}
	if best.Inst.Sol.ID() != "ConvBinWinogradRxSFwd" {
		t.Fatalf("best = %s, want ConvBinWinogradRxSFwd", best.Inst.Sol.ID())
	}
	if best.Inst.Binding() != "f32" {
		t.Fatalf("binding = %q", best.Inst.Binding())
	}
}

func TestSpecializationLadderMonotonicity(t *testing.T) {
	// A problem inside every Winograd tier's envelope: the more specialized
	// the solution, the faster the estimate (paper Fig 4).
	reg := NewRegistry(testCtx())
	p := conv3x3(64, 64, 28)
	ids := []string{"ConvWinogradNaiveFwd", "ConvBinWinogradRxSFwd", "ConvBinWinogradFwdFixed"}
	var prev time.Duration
	for i, id := range ids {
		s, ok := reg.ByID(id)
		if !ok {
			t.Fatalf("missing solution %s", id)
		}
		if !s.IsApplicable(reg.Ctx(), &p) {
			t.Fatalf("%s should be applicable to %s", id, p.Key())
		}
		est := EstimateTime(reg.Ctx().Dev, s, &p)
		if i > 0 && est >= prev {
			t.Fatalf("%s (%v) not faster than previous tier (%v)", id, est, prev)
		}
		prev = est
	}
}

func TestBindingRestrictsInstanceReuse(t *testing.T) {
	reg := NewRegistry(testCtx())
	ctx := reg.Ctx()
	fixed, _ := reg.ByID("ConvBinWinogradFwdFixed")
	p1 := conv3x3(64, 64, 28)
	p2 := conv3x3(256, 256, 14) // different problem configuration
	p1dup := conv3x3(64, 64, 28)
	inst := Bind(fixed, &p1)
	if !inst.IsApplicable(ctx, &p1) {
		t.Fatal("instance must serve its own problem")
	}
	if inst.IsApplicable(ctx, &p2) {
		t.Fatal("instance must not serve a different binding")
	}
	if !inst.IsApplicable(ctx, &p1dup) {
		t.Fatal("instance must serve a repeat of its own problem")
	}
	// A binding-free mid-tier serves all of them.
	rxs, _ := reg.ByID("ConvBinWinogradRxSFwd")
	mid := Bind(rxs, &p1)
	for _, p := range []*Problem{&p1, &p2, &p1dup} {
		if !mid.IsApplicable(ctx, p) {
			t.Fatalf("mid-tier should serve %s", p.Key())
		}
	}
}

func TestInstancePathIncludesBinding(t *testing.T) {
	reg := NewRegistry(testCtx())
	fixed, _ := reg.ByID("ConvBinWinogradFwdFixed")
	naive, _ := reg.ByID("ConvDirectNaiveFwd")
	p := conv3x3(64, 64, 28)
	if got := Bind(fixed, &p).Path(); got != "ConvBinWinogradFwdFixed_r3s3_c64k64h28_f32.pko" {
		t.Fatalf("specialized path = %q", got)
	}
	if got := Bind(naive, &p).Path(); got != "ConvDirectNaiveFwd.pko" {
		t.Fatalf("generic path = %q", got)
	}
}

// TestInstancePathInterned pins the instance representation: an instance
// is two pointers, and Bind and (*Solution).Instance hand out equal
// instances exactly when solution and binding are equal, in any registry
// they share.
func TestInstancePathInterned(t *testing.T) {
	if size := unsafe.Sizeof(Instance{}); size != 16 {
		t.Fatalf("Instance is %d bytes, want 16", size)
	}
	reg := NewRegistry(testCtx())
	other := NewRegistry(testCtx())
	p := conv3x3(64, 64, 28)
	q := conv3x3(256, 256, 14)
	for _, s := range reg.Solutions() {
		key := s.BindingKey(&p)
		if Bind(s, &p) != s.Instance(key) || s.Instance(key) != s.Instance(key) {
			t.Fatalf("%s: Bind and Instance differ at binding %q", s.ID(), key)
		}
		if got := s.Instance(key).Binding(); got != key {
			t.Fatalf("%s: Binding() = %q, want %q", s.ID(), got, key)
		}
		if s.Instance(key) == s.Instance(key+"_other") {
			t.Fatalf("%s: instances at two bindings are equal", s.ID())
		}
		if eq, same := Bind(s, &q) == Bind(s, &p), s.BindingKey(&q) == key; eq != same {
			t.Fatalf("%s: instances of two problems equal %v, bindings equal %v", s.ID(), eq, same)
		}
		twin, _ := other.ByID(s.ID())
		if twin.Instance(key) == s.Instance(key) {
			t.Fatalf("%s: instances of two registries are equal", s.ID())
		}
	}
}

// TestStaticCallsConcurrent races the kernel-call memo of shared
// solutions: every goroutine asks for the same problems in its own order,
// so some calls add a problem while others read the table. All must get
// one *Calls per (solution, problem) holding what KernelCalls returns. Run
// it under -race.
func TestStaticCallsConcurrent(t *testing.T) {
	reg := NewRegistry(testCtx())
	probs := []Problem{conv3x3(64, 64, 28), conv3x3(256, 256, 14), conv3x3(3, 64, 224), conv3x3(128, 128, 56)}
	got := make([][]*Calls, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, s := range reg.Solutions() {
				for i := range probs {
					got[g] = append(got[g], s.Calls(reg.Intern(&probs[(i+g)%len(probs)])))
				}
			}
		}(g)
	}
	wg.Wait()
	lists := map[*Calls]bool{}
	for g := range got {
		k := 0
		for _, s := range reg.Solutions() {
			for i := range probs {
				p := &probs[(i+g)%len(probs)]
				c := got[g][k]
				k++
				if c != s.Calls(reg.Intern(p)) {
					t.Fatalf("%s on %s: two *Calls for one problem", s.ID(), p.Key())
				}
				if !slices.Equal(c.list, s.KernelCalls(p)) {
					t.Fatalf("%s on %s: memoized calls differ from KernelCalls", s.ID(), p.Key())
				}
				lists[c] = true
			}
		}
	}
	// The lists' kernel calls have dense IDs from 0, one run per list (an
	// empty list takes one ID).
	var byFirst []*Calls
	for c := range lists {
		byFirst = append(byFirst, c)
	}
	slices.SortFunc(byFirst, func(a, b *Calls) int { return a.first - b.first })
	next := 0
	for _, c := range byFirst {
		if c.first != next {
			t.Fatalf("%s: calls start at ID %d, want %d", c.sol.ID(), c.first, next)
		}
		next += max(len(c.list), 1)
	}
}

// TestInstancePathConcurrent races Path on shared families: every goroutine
// asks for the same mix of bindings, so some calls add a binding to a
// family's table while others read it. Run it under -race.
func TestInstancePathConcurrent(t *testing.T) {
	reg := NewRegistry(testCtx())
	bindings := []string{"", "b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, s := range reg.Solutions() {
					for i := range bindings {
						b := bindings[(i+g)%len(bindings)]
						want := s.ID() + "_" + b + ".pko"
						if b == "" {
							want = s.ID() + ".pko"
						}
						if got := s.Instance(b).Path(); got != want {
							t.Errorf("Path(%s, %q) = %q, want %q", s.ID(), b, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInstancePathSeenBindingAllocatesNothing pins the warm path: once a
// family has handed out a binding's path, asking again allocates nothing.
func TestInstancePathSeenBindingAllocatesNothing(t *testing.T) {
	reg := NewRegistry(testCtx())
	p := conv3x3(64, 64, 28)
	for _, r := range reg.Find(&p) {
		inst := r.Inst
		inst.Path()
		if allocs := testing.AllocsPerRun(100, func() { inst.Path() }); allocs != 0 {
			t.Errorf("%s: Path allocates %v times on a seen binding, want 0", inst.Path(), allocs)
		}
	}
}

func TestWorkspaceLimitDisqualifies(t *testing.T) {
	ctx := testCtx()
	ctx.wsLimit = 1 // nothing fits
	reg := NewRegistry(ctx)
	p := conv3x3(64, 64, 56)
	for _, r := range reg.Find(&p) {
		if r.Inst.Sol.ID() == "ConvGemmNaiveFwd" || r.Inst.Sol.ID() == "ConvGemmStridedBatchedFwd" {
			t.Fatalf("%s needs workspace and must be excluded", r.Inst.Sol.ID())
		}
	}
}

func TestDisabledSolutionExcluded(t *testing.T) {
	reg := NewRegistry(testCtx())
	p := conv3x3(128, 128, 28)
	best, err := reg.FindBest(&p)
	if err != nil {
		t.Fatal(err)
	}
	id := best.Inst.Sol.ID()
	lib, other := NewLibrary(reg, nil), NewLibrary(reg, nil)
	lib.Disable(id)
	ranked := lib.Find(&p)
	if len(ranked) == 0 || len(ranked) != len(reg.Find(&p))-1 {
		t.Fatalf("Find returned %d instances, want the registry's minus one", len(ranked))
	}
	for _, r := range ranked {
		if r.Inst.Sol.ID() == id {
			t.Fatal("disabled solution selected")
		}
	}
	// The kill switch belongs to one process: another library over the
	// same registry still finds the solution.
	if got := other.Find(&p)[0].Inst.Sol.ID(); got != id {
		t.Fatalf("other library's best = %s, want %s", got, id)
	}
}

func TestXdlopsRequiresMatrixHardware(t *testing.T) {
	p := NewConvProblem(sh(1, 64, 14, 14), 64, 1, 1, kernels.Default1x1(), 1, tensor.F32, tensor.NHWC)
	mi := NewRegistry(NewCtx(device.MI100()))
	xd, _ := mi.ByID("ConvImplicitGemmXdlopsFwd")
	if !xd.IsApplicable(mi.Ctx(), &p) {
		t.Fatal("Xdlops should be applicable on MI100 (gfx908)")
	}
	navi := NewRegistry(NewCtx(device.RX6900XT()))
	xdN, _ := navi.ByID("ConvImplicitGemmXdlopsFwd")
	if xdN.IsApplicable(navi.Ctx(), &p) {
		t.Fatal("Xdlops must be rejected on gfx1030 (no matrix pipes)")
	}
}

func TestPoolAndActLadders(t *testing.T) {
	reg := NewRegistry(testCtx())
	pool := NewPoolProblem(sh(1, 64, 56, 56), kernels.Pool2DParams{WinH: 2, WinW: 2, StrideH: 2, StrideW: 2}, kernels.MaxPool, tensor.F32, tensor.NCHW)
	best, err := reg.FindBest(&pool)
	if err != nil {
		t.Fatal(err)
	}
	if best.Inst.Sol.ID() != "PoolingTiled2DFwd" {
		t.Fatalf("pool best = %s", best.Inst.Sol.ID())
	}
	global := NewPoolProblem(sh(1, 512, 7, 7), kernels.Pool2DParams{WinH: 7, WinW: 7, StrideH: 7, StrideW: 7}, kernels.AvgPool, tensor.F32, tensor.NCHW)
	best, err = reg.FindBest(&global)
	if err != nil {
		t.Fatal(err)
	}
	if best.Inst.Sol.ID() != "PoolingNaiveFwd" {
		t.Fatalf("global pool best = %s", best.Inst.Sol.ID())
	}
	relu := NewActProblem(sh(1, 64, 56, 56), kernels.ReLU, 0, tensor.F32, tensor.NCHW)
	best, err = reg.FindBest(&relu)
	if err != nil {
		t.Fatal(err)
	}
	if best.Inst.Sol.ID() != "ActivationPackedFwd" {
		t.Fatalf("relu best = %s", best.Inst.Sol.ID())
	}
	gelu := NewActProblem(sh(1, 1, 1, 3), kernels.GELU, 0, tensor.F32, tensor.NCHW)
	best, err = reg.FindBest(&gelu)
	if err != nil {
		t.Fatal(err)
	}
	if best.Inst.Sol.ID() != "ActivationNaiveFwd" {
		t.Fatalf("gelu best = %s", best.Inst.Sol.ID())
	}
}

func TestPerfDBMemoizes(t *testing.T) {
	reg := NewRegistry(testCtx())
	db := NewPerfDB(reg)
	p := conv3x3(64, 64, 56)
	a := db.Find(&p)
	b := db.Find(&p)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("find results differ: %d vs %d", len(a), len(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("second Find did not return the memoized ranking")
	}
	if len(db.m) != 1 {
		t.Fatalf("memoized problems = %d, want 1", len(db.m))
	}
}

// TestObjectSymbolsCoverKernelCalls materializes every solution's object for
// a set of representative problems and checks that each KernelCall symbol
// resolves — the consistency contract between the cost model and the loader.
func TestObjectSymbolsCoverKernelCalls(t *testing.T) {
	reg := NewRegistry(testCtx())
	problems := []Problem{
		conv3x3(64, 64, 56),
		conv3x3(3, 64, 224),
		conv3x3(128, 256, 14),
		NewConvProblem(sh(1, 64, 56, 56), 128, 1, 1, kernels.Default1x1(), 1, tensor.F32, tensor.NHWC),
		NewConvProblem(sh(1, 32, 28, 28), 32, 3, 3, kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, 32, tensor.F32, tensor.NCHW),
		NewConvProblem(sh(1, 3, 224, 224), 96, 11, 11, kernels.Conv2DParams{StrideH: 4, StrideW: 4, PadH: 2, PadW: 2, DilH: 1, DilW: 1}, 1, tensor.F32, tensor.NCHW),
		NewPoolProblem(sh(1, 64, 56, 56), kernels.Pool2DParams{WinH: 3, WinW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, kernels.MaxPool, tensor.F32, tensor.NCHW),
		NewActProblem(sh(1, 64, 56, 56), kernels.ReLU, 0, tensor.F32, tensor.NCHW),
		NewActProblem(sh(1, 64, 56, 56), kernels.Sigmoid, 0, tensor.F16, tensor.NCHW),
	}
	store := codeobj.NewStore()
	for pi := range problems {
		p := &problems[pi]
		for _, r := range reg.Find(p) {
			inst := r.Inst
			objs := store.Batch()
			MaterializeObjects(objs, reg.Ctx().Dev.Arch, []Instance{inst})
			if err := objs.Put(); err != nil {
				t.Fatalf("materialize %s: %v", inst.Path(), err)
			}
			data, err := store.Get(inst.Path())
			if err != nil {
				t.Fatal(err)
			}
			obj, err := codeobj.Parse(data)
			if err != nil {
				t.Fatalf("parse %s: %v", inst.Path(), err)
			}
			for _, call := range inst.Sol.KernelCalls(p) {
				if _, ok := obj.Symbol(call.Symbol); !ok {
					t.Fatalf("symbol %q of %s missing from object %s", call.Symbol, inst.Path(), inst.Path())
				}
				if call.Work.Flops < 0 || call.Work.Bytes <= 0 {
					t.Fatalf("degenerate workload for %s: %+v", call.Symbol, call.Work)
				}
			}
		}
	}
}

// Property: every applicable solution computes the same function — the
// correctness premise of PASK's reuse (substituting a loaded solution never
// changes results).
func TestApplicableSolutionsAgreeProperty(t *testing.T) {
	reg := NewRegistry(testCtx())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var p Problem
		switch rng.Intn(3) {
		case 0:
			c := []int{3, 4, 8, 16}[rng.Intn(4)]
			k := []int{8, 16, 32}[rng.Intn(3)]
			r := []int{1, 3, 5}[rng.Intn(3)]
			hw := rng.Intn(12) + r
			st := rng.Intn(2) + 1
			p = NewConvProblem(sh(1, c, hw, hw), k, r, r,
				kernels.Conv2DParams{StrideH: st, StrideW: st, PadH: r / 2, PadW: r / 2, DilH: 1, DilW: 1},
				1, tensor.F32, tensor.NCHW)
		case 1:
			c := rng.Intn(8) + 1
			hw := rng.Intn(10) + 4
			p = NewPoolProblem(sh(1, c, hw, hw),
				kernels.Pool2DParams{WinH: rng.Intn(3) + 1, WinW: rng.Intn(3) + 1, StrideH: rng.Intn(2) + 1, StrideW: rng.Intn(2) + 1},
				kernels.PoolMode(rng.Intn(2)), tensor.F32, tensor.NCHW)
		default:
			c := rng.Intn(8) + 1
			hw := rng.Intn(10) + 2
			p = NewActProblem(sh(1, c, hw, hw), kernels.ActKind(rng.Intn(5)), 0.1, tensor.F32, tensor.NCHW)
		}
		if !p.Valid() {
			return true
		}
		in := tensor.New(p.In, tensor.NCHW)
		in.Fill(func(int) float32 { return rng.Float32()*2 - 1 })
		var w, bias *tensor.Tensor
		if p.Primitive == Convolution {
			w = tensor.New(sh(p.K, p.In.C/p.Groups, p.R, p.S), tensor.NCHW)
			w.Fill(func(int) float32 { return rng.Float32()*2 - 1 })
			bias = tensor.New(sh(p.K, 1, 1, 1), tensor.NCHW)
			bias.Fill(func(int) float32 { return rng.Float32() })
		}
		ranked := reg.Find(&p)
		if len(ranked) == 0 {
			return false
		}
		var ref *tensor.Tensor
		for _, r := range ranked {
			out := tensor.New(p.OutShape(), tensor.NCHW)
			if err := r.Inst.Sol.RunFunctional(&p, in, w, bias, out); err != nil {
				return false
			}
			if ref == nil {
				ref = out
				continue
			}
			if tensor.MaxAbsDiff(ref, out) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Find never returns an inapplicable instance, and the instance's
// binding always matches the problem.
func TestFindSoundnessProperty(t *testing.T) {
	reg := NewRegistry(testCtx())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := rng.Intn(512) + 1
		k := rng.Intn(512) + 1
		r := rng.Intn(7) + 1
		hw := rng.Intn(200) + r
		st := rng.Intn(3) + 1
		p := NewConvProblem(sh(rng.Intn(4)+1, c, hw, hw), k, r, r,
			kernels.Conv2DParams{StrideH: st, StrideW: st, PadH: rng.Intn(3), PadW: rng.Intn(3), DilH: 1, DilW: 1},
			1, tensor.DType(rng.Intn(3)), tensor.Layout(rng.Intn(2)))
		if !p.Valid() {
			return true
		}
		for _, ranked := range reg.Find(&p) {
			if !ranked.Inst.IsApplicable(reg.Ctx(), &p) {
				return false
			}
			if ranked.Inst.Binding() != ranked.Inst.Sol.BindingKey(&p) {
				return false
			}
			if ranked.Est <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyCurve(t *testing.T) {
	if occupancy(1000) >= occupancy(10000) || occupancy(10000) >= occupancy(400000) {
		t.Fatal("occupancy must grow with parallel work")
	}
	if occupancy(400000) != 1 || occupancy(1<<30) != 1 {
		t.Fatal("occupancy must saturate at 1")
	}
	if occupancy(0) < 0.03 {
		t.Fatal("occupancy floor too low")
	}
}

func TestPow2Bucket(t *testing.T) {
	cases := map[int]int{1: 16, 16: 16, 17: 16, 64: 64, 100: 64, 512: 512, 2048: 512}
	for in, want := range cases {
		if got := pow2Bucket(in); got != want {
			t.Errorf("pow2Bucket(%d) = %d, want %d", in, got, want)
		}
	}
}
