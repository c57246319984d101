package cuda

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/backend/conformancetest"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// The CUDA runtime must satisfy every invariant of the shared backend
// contract (DESIGN.md §15) — same table the HIP flavor runs.
func TestBackendConformance(t *testing.T) {
	conformancetest.Run(t, NewRuntime)
}

func newTestRuntime(t *testing.T) (*sim.Env, *backend.Registry) {
	t.Helper()
	env := sim.NewEnv()
	prof := device.A100()
	gpu := device.NewGPU(env, prof)
	st := codeobj.NewStore()
	if err := st.PutBuilt("gemm.pko", prof.Arch, []codeobj.KernelSpec{
		{Name: "gemm_main", Pattern: "GEMM", CodeSize: 40000},
		{Name: "gemm_epilogue", Pattern: "GEMM", CodeSize: 8000},
	}); err != nil {
		t.Fatal(err)
	}
	return env, NewRuntime(env, gpu, device.DefaultHost(), st)
}

func runHost(t *testing.T, env *sim.Env, rt *backend.Registry, fn func(p *sim.Proc)) {
	t.Helper()
	env.Spawn("host", func(p *sim.Proc) {
		defer rt.GPU().CloseAll()
		fn(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// CUDA defers per-symbol resolution to first use (lazy module loading): the
// load itself charges only the fixed + bandwidth cost, and each symbol's
// SymbolResolve lands at its first cuModuleGetFunction.
func TestLazySymbolResolution(t *testing.T) {
	env, rt := newTestRuntime(t)
	prof := rt.GPU().Profile
	runHost(t, env, rt, func(p *sim.Proc) {
		start := p.Now()
		m, err := rt.ModuleLoad(p, "gemm.pko")
		if err != nil {
			t.Fatal(err)
		}
		loadCost := p.Now() - start
		if want := prof.LoadTime(int64(rt.Store().Size("gemm.pko")), 0); loadCost != want {
			t.Errorf("lazy load charged %v, want %v (no symbol cost)", loadCost, want)
		}
		before := p.Now()
		if _, err := rt.ModuleGetFunction(p, m, "gemm_main"); err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - before; got != prof.SymbolResolve {
			t.Errorf("first lookup charged %v, want %v", got, prof.SymbolResolve)
		}
		before = p.Now()
		if _, err := rt.ModuleGetFunction(p, m, "gemm_main"); err != nil {
			t.Fatal(err)
		}
		if p.Now() != before {
			t.Errorf("repeat lookup charged %v", p.Now()-before)
		}
	})
}

// Error texts follow the CUDA driver-API style and keep their semantic
// wrappers (missing objects stay transient-checkable, codeobj causes stay
// unwrappable).
func TestCUDAErrorTexts(t *testing.T) {
	env, rt := newTestRuntime(t)
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

// The CUDA flavor retries transient faults on its own, tighter default
// policy: two extra attempts, 100µs first backoff.
func TestCUDADefaultRetryPolicy(t *testing.T) {
	if got, want := DefaultRetryPolicy(), (backend.RetryPolicy{MaxRetries: 2, Backoff: 100 * time.Microsecond, MaxBackoff: 400 * time.Microsecond}); got != want {
		t.Fatalf("DefaultRetryPolicy() = %+v, want %+v", got, want)
	}
	env, rt := newTestRuntime(t)
	hook := &failFirstN{n: 2}
	rt.SetFaults(hook)
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.ModuleLoad(p, "gemm.pko"); err != nil {
			t.Fatalf("default policy must absorb two transient faults: %v", err)
		}
	})
	if st := rt.Stats(); st.TransientRetries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

type failFirstN struct {
	conformancetest.NoFaults
	n int
}

func (f *failFirstN) StoreGet(path string, data []byte) ([]byte, error) {
	if f.n > 0 {
		f.n--
		return nil, codeobj.ErrIO
	}
	return data, nil
}
