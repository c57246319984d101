package core

import (
	"fmt"
	"testing"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/kernels"
	"pask/internal/miopen"
	"pask/internal/sim"
	"pask/internal/tensor"
)

// benchConvProblem returns a problem the ConvBinWinogradFwdFixed specialist
// binds at channel count c — distinct c values yield distinct bindings, so
// one pattern list can hold many loaded instances, the shape the categorical
// cache scans under fleet traffic.
func benchConvProblem(c int) miopen.Problem {
	return miopen.NewConvProblem(tensor.Shape{N: 1, C: c, H: 14, W: 14}, c, 3, 3,
		kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1},
		1, tensor.F32, tensor.NCHW)
}

// benchCache bundles the cache-benchmark harness: n Winograd specialist
// instances (distinct bindings, so one pattern list holds them all) backed
// by a hip runtime, plus one "miss" instance whose binding is cached
// nowhere.
type benchCache struct {
	env      *sim.Env
	gpu      *device.GPU
	lib      *miopen.Library
	insts    []miopen.Instance
	probs    []*miopen.Interned
	missInst miopen.Instance
	missProb *miopen.Interned
}

func newBenchCache(b testing.TB, n int) *benchCache {
	b.Helper()
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	sol, ok := reg.ByID("ConvBinWinogradFwdFixed")
	if !ok {
		b.Fatal("ConvBinWinogradFwdFixed not registered")
	}
	insts := make([]miopen.Instance, 0, n)
	probs := make([]*miopen.Interned, 0, n)
	for i := 0; i < n; i++ {
		p := benchConvProblem(16 + 8*i)
		probs = append(probs, reg.Intern(&p))
		insts = append(insts, miopen.Bind(sol, &p))
	}
	missProb := benchConvProblem(16 + 8*n)
	missInst := miopen.Bind(sol, &missProb)

	store := codeobj.NewStore()
	objs := store.Batch()
	miopen.MaterializeObjects(objs, device.MI100().Arch, insts)
	if err := objs.Put(); err != nil {
		b.Fatal(err)
	}
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)
	lib := miopen.NewLibrary(reg, rt)
	return &benchCache{env: env, gpu: gpu, lib: lib, insts: insts, probs: probs, missInst: missInst, missProb: reg.Intern(&missProb)}
}

// loadAll makes every instance's module resident so shared-view residency
// guards pass.
func (h *benchCache) loadAll(p *sim.Proc) error {
	for _, inst := range h.insts {
		if err := h.lib.EnsureLoaded(p, inst); err != nil {
			return err
		}
	}
	return nil
}

// run spawns the benchmark proc, runs the simulation and reports errors on
// the benchmark goroutine. Streams are closed on exit so the env drains.
func (h *benchCache) run(b testing.TB, fn func(p *sim.Proc) error) {
	b.Helper()
	var benchErr error
	h.env.Spawn("bench", func(p *sim.Proc) {
		defer h.gpu.CloseAll()
		benchErr = fn(p)
	})
	if err := h.env.Run(); err != nil {
		b.Fatal(err)
	}
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

const benchEntries = 16

// BenchmarkCategoricalQueryMiss measures the per-miss scan of one pattern
// list: every candidate charges an applicability check and fails on its
// binding, the hot path fleet traffic contends on (paper §III-C).
func BenchmarkCategoricalQueryMiss(b *testing.B) {
	h := newBenchCache(b, benchEntries)
	cache := NewCategoricalCache()
	h.run(b, func(p *sim.Proc) error {
		if err := h.loadAll(p); err != nil {
			return err
		}
		for _, inst := range h.insts {
			cache.Insert(inst)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := cache.GetSub(p, h.lib, h.missInst, h.missProb); ok {
				return fmt.Errorf("unexpected hit")
			}
		}
		return nil
	})
}

// BenchmarkCategoricalQueryHit measures the steady-state hit: the winner
// sits at the MRU head after its first promotion, so each query scans one
// candidate.
func BenchmarkCategoricalQueryHit(b *testing.B) {
	h := newBenchCache(b, benchEntries)
	cache := NewCategoricalCache()
	h.run(b, func(p *sim.Proc) error {
		if err := h.loadAll(p); err != nil {
			return err
		}
		for _, inst := range h.insts {
			cache.Insert(inst)
		}
		want, prob := h.insts[0], h.probs[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := cache.GetSub(p, h.lib, want, prob); !ok {
				return fmt.Errorf("expected hit")
			}
		}
		return nil
	})
}

// BenchmarkSharedViewQueryMiss is the per-miss scan through a tenant view of
// the per-GPU SharedCache: on top of the categorical scan every candidate
// passes a residency probe before its check is charged.
func BenchmarkSharedViewQueryMiss(b *testing.B) {
	h := newBenchCache(b, benchEntries)
	view := NewSharedCache().View()
	h.run(b, func(p *sim.Proc) error {
		if err := h.loadAll(p); err != nil {
			return err
		}
		for _, inst := range h.insts {
			view.Insert(inst)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := view.GetSub(p, h.lib, h.missInst, h.missProb); ok {
				return fmt.Errorf("unexpected hit")
			}
		}
		return nil
	})
}

// BenchmarkCacheInsertRefresh measures re-inserting the current LRU tail:
// the full refresh scan plus the head promotion, the bookkeeping every
// successful load pays.
func BenchmarkCacheInsertRefresh(b *testing.B) {
	h := newBenchCache(b, benchEntries)
	cache := NewCategoricalCache()
	h.run(b, func(p *sim.Proc) error {
		if err := h.loadAll(p); err != nil {
			return err
		}
		for _, inst := range h.insts {
			cache.Insert(inst)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Round-robin re-insert targets the tail each time (the previous
			// insert rotated it there), the worst-case refresh scan.
			cache.Insert(h.insts[i%benchEntries])
		}
		return nil
	})
}

// BenchmarkGetSubAnyMiss measures the degraded-mode query that scans every
// pattern list with per-candidate residency probes — the forced-reuse path
// brownout mode leans on.
func BenchmarkGetSubAnyMiss(b *testing.B) {
	h := newBenchCache(b, benchEntries)
	cache := NewCategoricalCache()
	h.run(b, func(p *sim.Proc) error {
		if err := h.loadAll(p); err != nil {
			return err
		}
		for _, inst := range h.insts {
			cache.Insert(inst)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := cache.GetSubAny(p, h.lib, h.missInst, h.missProb); ok {
				return fmt.Errorf("unexpected hit")
			}
		}
		return nil
	})
}
