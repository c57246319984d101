package core

import (
	"pask/internal/miopen"
	"pask/internal/sim"
)

// SharedCache is a per-GPU categorical solution cache shared by every tenant
// attached to the GPU's runtime. Entries are keyed purely by solution
// pattern and binding (miopen.Instance.CacheKey carries no model identity),
// so a solution loaded while serving one model is a first-class reuse
// candidate for every other model on the GPU — the cross-model sharing of
// paper §III-B/C lifted from process scope to device scope.
//
// Tenants never hold the SharedCache directly: each obtains a View, which
// implements the core.Cache interface, mutates the one shared MRU structure,
// and attributes the activity it causes to its own per-tenant counters.
type SharedCache struct {
	inner *CategoricalCache
}

// NewSharedCache returns an empty per-GPU shared cache.
func NewSharedCache() *SharedCache {
	return &SharedCache{inner: NewCategoricalCache()}
}

// View creates a tenant-scoped handle on the shared cache. All views share
// one categorical structure (recency promotions by one tenant benefit the
// next), while stats are recorded twice: into the shared aggregate and into
// the view's private counters.
func (s *SharedCache) View() *SharedCacheView {
	return &SharedCacheView{shared: s}
}

// SharedCacheView is one tenant's handle on a SharedCache. It satisfies
// core.Cache so executors run unchanged against shared state.
//
// Unlike the private CategoricalCache, View.GetSub verifies candidate
// residency before charging an applicability check: the shared evictor may
// drop a module under another tenant's memory pressure, and a shared hit
// must never point at a vanished code object.
type SharedCacheView struct {
	shared *SharedCache
	stats  CacheStats
}

var _ Cache = (*SharedCacheView)(nil)

// Insert records inst as resident in the shared cache.
func (v *SharedCacheView) Insert(inst miopen.Instance) {
	v.shared.inner.insertWith(&v.stats, inst)
}

// GetSub returns a loaded substitute from the shared cache, skipping
// entries whose modules were evicted since insertion.
func (v *SharedCacheView) GetSub(proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool) {
	return v.shared.inner.getSubWith(&v.stats, true, proc, lib, want, p)
}

// GetSubAny is the degraded-mode query over every shared pattern list.
func (v *SharedCacheView) GetSubAny(proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool) {
	return v.shared.inner.getSubAnyWith(&v.stats, proc, lib, want, p)
}

// Stats returns this view's share of the cache activity.
func (v *SharedCacheView) Stats() CacheStats { return v.stats }

// Len returns the size of the underlying shared cache (not a per-view
// count: residency is a GPU-level property).
func (v *SharedCacheView) Len() int { return v.shared.inner.Len() }
