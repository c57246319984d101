package backend

import (
	"errors"
	"strings"
	"testing"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// newA100Runtime builds a cold CUDA registry on the paper's A100 profile
// over a store holding one two-kernel sm_80 object, gemm.pko.
func newA100Runtime(t *testing.T) (*sim.Env, *Registry) {
	t.Helper()
	env := sim.NewEnv()
	prof := device.A100()
	gpu := device.NewGPU(env, prof)
	st := codeobj.NewStore()
	if err := putBuilt(st, "gemm.pko", prof.Arch, []codeobj.KernelSpec{
		{Name: "gemm_main", Pattern: "GEMM", CodeSize: 40000},
		{Name: "gemm_epilogue", Pattern: "GEMM", CodeSize: 8000},
	}); err != nil {
		t.Fatal(err)
	}
	return env, New(env, gpu, device.DefaultHost(), st, CUDA)
}

// Every device profile's ISA maps to the flavor of the paper's testbed: the
// A100 (sm_80) to CUDA, the gfx parts to HIP.
func TestFlavorFor(t *testing.T) {
	for _, prof := range device.Profiles() {
		want := HIP
		if prof.Name == "A100" {
			want = CUDA
		}
		if got := FlavorFor(prof.Arch); got != want {
			t.Errorf("FlavorFor(%q) = %s, want %s", prof.Arch, got.Driver(), want.Driver())
		}
	}
}

// A lazy flavor (CUDA) defers per-symbol resolution to first use: the load
// itself charges only the fixed + bandwidth cost, and each symbol's
// SymbolResolve lands at its first ModuleGetFunction. An eager flavor (HIP)
// charges it inside the load, so first lookups are free.
func TestLazySymbolResolution(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		env, rt := newTestRuntime(t, f)
		prof := rt.GPU().Profile
		firstLookup := prof.SymbolResolve
		if !f.LazySymbols() {
			firstLookup = 0
		}
		runHost(t, env, rt, func(p *sim.Proc) {
			start := p.Now()
			m, err := rt.ModuleLoad(p, "conv_a.pko")
			if err != nil {
				t.Fatal(err)
			}
			loadCost := p.Now() - start
			if want := prof.LoadTime(objSize(t, rt.Store(), "conv_a.pko"), eagerSymbols(f, 2)); loadCost != want {
				t.Errorf("load charged %v, want %v", loadCost, want)
			}
			before := p.Now()
			if _, err := rt.ModuleGetFunction(p, m, "conv_a_main"); err != nil {
				t.Fatal(err)
			}
			if got := p.Now() - before; got != firstLookup {
				t.Errorf("first lookup charged %v, want %v", got, firstLookup)
			}
			before = p.Now()
			if _, err := rt.ModuleGetFunction(p, m, "conv_a_main"); err != nil {
				t.Fatal(err)
			}
			if p.Now() != before {
				t.Errorf("repeat lookup charged %v", p.Now()-before)
			}
		})
	})
}

// Error texts follow the CUDA driver-API style and keep their semantic
// wrappers (missing objects stay transient-checkable, codeobj causes stay
// unwrappable).
func TestCUDAErrorTexts(t *testing.T) {
	env, rt := newA100Runtime(t)
	rt.Store().Put("bad.pko", []byte("junk"))
	runHost(t, env, rt, func(p *sim.Proc) {
		_, err := rt.ModuleLoad(p, "missing.pko")
		if err == nil || !strings.Contains(err.Error(), "CUDA_ERROR_FILE_NOT_FOUND") {
			t.Errorf("missing object error = %v", err)
		}
		_, err = rt.ModuleLoad(p, "bad.pko")
		if err == nil || !strings.Contains(err.Error(), "CUDA_ERROR_INVALID_IMAGE") {
			t.Errorf("corrupt object error = %v", err)
		}
		if !errors.Is(err, codeobj.ErrBadMagic) && !errors.Is(err, codeobj.ErrTruncated) && !errors.Is(err, codeobj.ErrChecksum) {
			t.Errorf("parse cause not unwrappable: %v", err)
		}
		m, lerr := rt.ModuleLoad(p, "gemm.pko")
		if lerr != nil {
			t.Fatal(lerr)
		}
		_, err = rt.ModuleGetFunction(p, m, "nope")
		if err == nil || !strings.Contains(err.Error(), "CUDA_ERROR_NOT_FOUND") {
			t.Errorf("missing symbol error = %v", err)
		}
	})
}

// The CUDA flavor retries transient faults on its own, tighter policy: on
// the A100 it absorbs two faults and surfaces the third.
func TestCUDADefaultRetryPolicy(t *testing.T) {
	for _, tc := range []struct {
		faults int
		ok     bool
	}{{2, true}, {3, false}} {
		env, rt := newA100Runtime(t)
		rt.SetFaults(&flakyReads{n: tc.faults})
		runHost(t, env, rt, func(p *sim.Proc) {
			_, err := rt.ModuleLoad(p, "gemm.pko")
			if tc.ok && err != nil {
				t.Errorf("%d faults: the policy must absorb them: %v", tc.faults, err)
			}
			if !tc.ok && !IsTransient(err) {
				t.Errorf("%d faults: err = %v, want transient", tc.faults, err)
			}
		})
		if st := rt.Stats(); st.TransientRetries != 2 {
			t.Errorf("%d faults: stats = %+v, want 2 retries", tc.faults, st)
		}
	}
}
