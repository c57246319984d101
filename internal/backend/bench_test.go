package backend_test

import (
	"fmt"
	"testing"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/hip"
	"pask/internal/sim"
)

// benchStore materializes n code objects of the given payload size under
// predictable paths obj0.pko .. obj<n-1>.pko.
func benchStore(b testing.TB, n, codeSize int) *codeobj.Store {
	b.Helper()
	store := codeobj.NewStore()
	for i := 0; i < n; i++ {
		specs := []codeobj.KernelSpec{
			{Name: fmt.Sprintf("obj%d_main", i), Pattern: "GEMM", CodeSize: codeSize},
			{Name: fmt.Sprintf("obj%d_helper", i), Pattern: "GEMM", CodeSize: codeSize / 4},
		}
		if err := store.PutBuilt(benchPath(i), "gfx908", specs); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

func benchPath(i int) string { return fmt.Sprintf("obj%d.pko", i) }

// benchRuntime builds a hip-flavored registry over the store on a device
// with the given code-memory budget (0 keeps the profile default).
func benchRuntime(store *codeobj.Store, codeMemory int64) (*sim.Env, *device.GPU, *backend.Registry) {
	env := sim.NewEnv()
	prof := device.MI100()
	if codeMemory > 0 {
		prof.CodeMemory = codeMemory
	}
	gpu := device.NewGPU(env, prof)
	return env, gpu, hip.NewRuntime(env, gpu, device.DefaultHost(), store)
}

// runRegistryBench spawns the benchmark proc, runs the simulation and
// reports errors on the benchmark goroutine. Streams are closed on exit so
// the env drains.
func runRegistryBench(b *testing.B, env *sim.Env, gpu *device.GPU, fn func(p *sim.Proc) error) {
	b.Helper()
	var benchErr error
	env.Spawn("bench", func(p *sim.Proc) {
		defer gpu.CloseAll()
		benchErr = fn(p)
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

// BenchmarkRegistryLoadHit measures the registry's resident-module fast
// path: the answer every warmed tenant gets per kernel launch.
func BenchmarkRegistryLoadHit(b *testing.B) {
	store := benchStore(b, 1, 8<<10)
	env, gpu, rt := benchRuntime(store, 0)
	path := benchPath(0)
	runRegistryBench(b, env, gpu, func(p *sim.Proc) error {
		if _, err := rt.ModuleLoad(p, path); err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.ModuleLoad(p, path); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkRegistryGetFunction/hit measures a warm kernel launch that
// resolves its function again: the module is resident and the symbol
// resolved, so GetFunction is a registry hit plus a symbol lookup, returned
// by value. /reuse is the same launch through a function bound once and
// checked with Reuse, which is what the libraries' warm launches do.
func BenchmarkRegistryGetFunction(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		store := benchStore(b, 1, 8<<10)
		env, gpu, rt := benchRuntime(store, 0)
		path, sym := benchPath(0), "obj0_main"
		runRegistryBench(b, env, gpu, func(p *sim.Proc) error {
			if _, err := rt.GetFunction(p, path, sym); err != nil {
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.GetFunction(p, path, sym); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("reuse", func(b *testing.B) {
		store := benchStore(b, 1, 8<<10)
		env, gpu, rt := benchRuntime(store, 0)
		path, sym := benchPath(0), "obj0_main"
		runRegistryBench(b, env, gpu, func(p *sim.Proc) error {
			fn, err := rt.GetFunction(p, path, sym)
			if err != nil {
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !rt.Reuse(fn) {
					return fmt.Errorf("Reuse refused a resident module's function")
				}
			}
			return nil
		})
	})
}

// BenchmarkRegistryTenantHit is the hit path through an attached tenant
// view, which additionally pins the module — the shape fleet serving hits.
func BenchmarkRegistryTenantHit(b *testing.B) {
	store := benchStore(b, 1, 8<<10)
	env, gpu, root := benchRuntime(store, 0)
	rt := root.Attach("bench-tenant")
	path := benchPath(0)
	runRegistryBench(b, env, gpu, func(p *sim.Proc) error {
		if _, err := rt.ModuleLoad(p, path); err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.ModuleLoad(p, path); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkRegistryLoadMiss measures the load path a module pays again
// after an eviction — store read, relocation accounting, residency
// bookkeeping — by evicting the module before each load. The stored bytes
// do not change, so every load after the first reuses their parse
// (Store.Parse); BenchmarkParse in internal/codeobj measures the decode.
func BenchmarkRegistryLoadMiss(b *testing.B) {
	store := benchStore(b, 1, 8<<10)
	env, gpu, rt := benchRuntime(store, 0)
	path := benchPath(0)
	runRegistryBench(b, env, gpu, func(p *sim.Proc) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.ModuleLoad(p, path); err != nil {
				return err
			}
			b.StopTimer()
			rt.Unload(path)
			b.StartTimer()
		}
		return nil
	})
}

// BenchmarkRegistryEvict measures loading under code-memory pressure: a
// budget that holds ~8 of 32 objects forces the LRU evictor to run on every
// load, the churn edge devices pay (paper §I).
func BenchmarkRegistryEvict(b *testing.B) {
	const nObjs = 32
	store := benchStore(b, nObjs, 8<<10)
	// Each container is ~10 KB; budget 8 of them.
	env, gpu, rt := benchRuntime(store, 80<<10)
	runRegistryBench(b, env, gpu, func(p *sim.Proc) error {
		// Warm the working set once so the budget is saturated.
		for i := 0; i < nObjs; i++ {
			if _, err := rt.ModuleLoad(p, benchPath(i)); err != nil {
				return err
			}
		}
		paths := make([]string, nObjs)
		for i := range paths {
			paths[i] = benchPath(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.ModuleLoad(p, paths[i%nObjs]); err != nil {
				return err
			}
		}
		return nil
	})
}
