package core

import (
	"testing"

	"pask/internal/sim"
)

// TestSharedViewQueryAllocs pins the allocation budget of the shared-cache
// query path: after warmup a steady-state categorical hit through a tenant
// view must not allocate (the interned keys, snapshot freelist and
// hand-rolled event heap each reached zero; any regression shows up here
// without needing the bench gate).
func TestSharedViewQueryAllocs(t *testing.T) {
	h := newBenchCache(t, benchEntries)
	view := NewSharedCache().View()
	h.run(t, func(p *sim.Proc) error {
		if err := h.loadAll(p); err != nil {
			return err
		}
		for _, inst := range h.insts {
			view.Insert(inst)
		}
		want, prob := h.insts[0], h.probs[0]
		// Warm the query path (memoized applicability, promoted MRU head,
		// grown event heap) before measuring.
		for i := 0; i < 16; i++ {
			if _, ok := view.GetSub(p, h.lib, want, prob); !ok {
				t.Error("expected warm hit")
				return nil
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, ok := view.GetSub(p, h.lib, want, prob); !ok {
				t.Error("expected hit")
			}
		})
		if avg >= 1 {
			t.Errorf("shared-view query allocates %.2f objects/op, want < 1", avg)
		}
		return nil
	})
}

// TestCategoricalInsertAllocs pins that re-inserting an already-cached
// instance (the refresh every successful load pays) allocates nothing.
func TestCategoricalInsertAllocs(t *testing.T) {
	h := newBenchCache(t, benchEntries)
	cache := NewCategoricalCache()
	h.run(t, func(p *sim.Proc) error {
		if err := h.loadAll(p); err != nil {
			return err
		}
		for _, inst := range h.insts {
			cache.Insert(inst)
		}
		i := 0
		avg := testing.AllocsPerRun(100, func() {
			cache.Insert(h.insts[i%benchEntries])
			i++
		})
		if avg >= 1 {
			t.Errorf("cache refresh allocates %.2f objects/op, want < 1", avg)
		}
		return nil
	})
}
