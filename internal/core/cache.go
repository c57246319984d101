// Package core implements PASK, the paper's contribution: a kernel loading
// and reusing middleware between the inference engine and the primitive
// library. It provides
//
//   - the categorical solution cache (§III-C): loaded solution instances
//     organized in per-pattern MRU lists so a reusable substitute is found
//     with ~1 applicability check;
//   - selective solution reuse (§III-B, Algorithm 1): run an absent layer
//     with an already-loaded, possibly more generic solution instead of
//     loading the statically optimal one;
//   - proactively interleaved execution (§III-A): parsing, loading and
//     issuing on three host threads joined by SPSC channels;
//   - the evaluated scheme variants (Baseline, NNV12, Ideal, PaSK, PaSK-I,
//     PaSK-R), each mapped to its engine by Run alone, and the §VI
//     extensions (BLAS scope, precision preference, inter-request
//     background loading).
//
// Paper anchor: §III-A interleaved pipeline, §III-B Algorithm 1, §III-C categorical cache — the paper's contribution itself.
package core

import (
	"time"

	"pask/internal/miopen"
	"pask/internal/sim"
)

// CacheStats counts cache activity for the paper's Fig 9 metrics.
type CacheStats struct {
	Queries int // GetSub invocations
	Hits    int // queries answered with a substitute
	Lookups int // IsApplicable evaluations performed inside queries
	Inserts int // instances inserted (loads)
}

// Cache is the loaded-solution cache PASK consults for substitutes
// (Algorithm 1's GETSUBSOLUTION). Two implementations exist: the categorical
// per-pattern cache of full PASK and the flat naive cache of PaSK-R.
type Cache interface {
	// Insert records that inst's code object is resident, moving it to the
	// most-recently-used position. Executors also call it to refresh
	// recency after running an already-loaded instance directly.
	Insert(inst miopen.Instance)
	// GetSub returns a loaded substitute applicable to p for the wanted
	// instance, charging one applicability check per candidate examined.
	GetSub(proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool)
	// GetSubAny is the degraded-mode query used when the wanted instance's
	// code object cannot load: unlike GetSub it scans every category, skips
	// the wanted instance itself, and only returns candidates whose modules
	// are verifiably resident (forced reuse must not trigger another load).
	GetSubAny(proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool)
	// Stats returns the accumulated counters.
	Stats() CacheStats
	// Len returns the number of cached instances.
	Len() int
}

// SeedResidents inserts the library's resident generic instances into a
// cache, provided they are actually loaded in the process's runtime. PASK
// does this once at startup: the generics shipped inside the library binary
// are the first reuse candidates of every pattern.
func SeedResidents(c Cache, lib *miopen.Library) {
	for _, inst := range lib.Reg.Residents() {
		if lib.IsLoaded(inst) {
			c.Insert(inst)
		}
	}
}

// allPatterns pins the stable pattern order once; miopen.Patterns clones a
// fresh slice per call, which the query hot path must not pay.
var allPatterns = miopen.Patterns()

// CategoricalCache organizes loaded instances in separate MRU lists keyed by
// solution pattern (paper §III-C). A query only scans the list matching the
// wanted solution's pattern and gives up without touching other categories.
type CategoricalCache struct {
	lists   map[miopen.Pattern][]miopen.Instance // index 0 = most recent
	scratch [][]miopen.Instance                  // freelist of query snapshot buffers
	stats   CacheStats
}

// NewCategoricalCache returns an empty categorical cache.
func NewCategoricalCache() *CategoricalCache {
	return &CategoricalCache{lists: make(map[miopen.Pattern][]miopen.Instance)}
}

// promote moves list[i] to the front in place.
func promote[T any](list []T, i int) {
	if i == 0 {
		return
	}
	e := list[i]
	copy(list[1:i+1], list[:i])
	list[0] = e
}

// promoteKey moves the entry with the given key to the head of its pattern
// list, consulting the *current* list. Queries iterate over a snapshot
// because applicability checks sleep in virtual time — on a shared cache
// another tenant may reorder the live list during the sleep, so promotion
// must re-locate the winner by key rather than trust a snapshot index.
func (c *CategoricalCache) promoteKey(pat miopen.Pattern, key string) {
	list := c.lists[pat]
	for i := range list {
		if list[i].Path() == key {
			promote(list, i)
			return
		}
	}
}

// snapshot copies a pattern list into a reusable scratch buffer. The pop and
// copy happen without yields, so concurrent queries interleaved in virtual
// time each hold distinct buffers; release returns the buffer once the query
// is done iterating.
func (c *CategoricalCache) snapshot(list []miopen.Instance) []miopen.Instance {
	var buf []miopen.Instance
	if n := len(c.scratch); n > 0 {
		buf = c.scratch[n-1][:0]
		c.scratch = c.scratch[:n-1]
	}
	return append(buf, list...)
}

func (c *CategoricalCache) release(buf []miopen.Instance) {
	c.scratch = append(c.scratch, buf)
}

// Insert adds or refreshes an instance at the head of its pattern list.
func (c *CategoricalCache) Insert(inst miopen.Instance) { c.insertWith(nil, inst) }

// insertWith is Insert with an optional second stats sink — the seam
// SharedCacheView uses to attribute activity on the shared cache to one
// tenant. Counter deltas cannot be measured around calls from the outside
// because applicability checks sleep in virtual time and other tenants may
// interleave, so per-view counters are recorded inline.
func (c *CategoricalCache) insertWith(extra *CacheStats, inst miopen.Instance) {
	pat := inst.CacheKey()
	key := inst.Path()
	list := c.lists[pat]
	for i := range list {
		if list[i].Path() == key {
			promote(list, i)
			return
		}
	}
	c.stats.Inserts++
	if extra != nil {
		extra.Inserts++
	}
	c.lists[pat] = append([]miopen.Instance{inst}, list...)
}

// GetSub scans only the wanted pattern's list in MRU order and returns the
// first applicable instance, charging one check per candidate.
func (c *CategoricalCache) GetSub(proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool) {
	return c.getSubWith(nil, false, proc, lib, want, p)
}

// getSubWith is GetSub with an optional per-view stats sink and, for shared
// caches, a residency guard: with requireLoaded set, candidates whose code
// objects are no longer resident (evicted under cross-tenant memory
// pressure) are skipped instead of handed out stale. The residency probe is
// a host-side map lookup and charges no applicability check.
func (c *CategoricalCache) getSubWith(extra *CacheStats, requireLoaded bool, proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool) {
	c.beginQuery(extra, proc, lib)
	return c.scan(extra, proc, lib, want.CacheKey(), "", requireLoaded, p)
}

// GetSubAny extends GetSub across every pattern list — the wanted pattern
// first (most likely to hold a fit), then the remaining categories in
// stable declaration order. Costs are charged like GetSub: one fixed query
// plus one applicability check per candidate examined.
func (c *CategoricalCache) GetSubAny(proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool) {
	return c.getSubAnyWith(nil, proc, lib, want, p)
}

// getSubAnyWith is GetSubAny with the optional per-view stats sink.
// GetSubAny already guards residency for every caller (forced reuse must
// never trigger a load), so it always scans with requireLoaded.
func (c *CategoricalCache) getSubAnyWith(extra *CacheStats, proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool) {
	c.beginQuery(extra, proc, lib)
	first := want.CacheKey()
	wantKey := want.Path()
	if inst, ok := c.scan(extra, proc, lib, first, wantKey, true, p); ok {
		return inst, true
	}
	for _, pat := range allPatterns {
		if pat == first {
			continue
		}
		if inst, ok := c.scan(extra, proc, lib, pat, wantKey, true, p); ok {
			return inst, true
		}
	}
	return miopen.Instance{}, false
}

// beginQuery counts one query and charges its fixed cost.
func (c *CategoricalCache) beginQuery(extra *CacheStats, proc *sim.Proc, lib *miopen.Library) {
	c.stats.Queries++
	if extra != nil {
		extra.Queries++
	}
	proc.Sleep(lib.RT.Host().CacheQueryFixed)
}

// scan walks one pattern list in MRU order and returns the first applicable
// candidate, promoting it and counting the hit; each applicability check
// counts one lookup. The entry keyed skipKey (none when empty) is passed
// over, and with requireLoaded so is every candidate whose module is not
// resident, before its check and again after it.
//
// It iterates over a snapshot: CheckApplicable sleeps in virtual time, and
// on a shared cache another tenant's Insert/promote may shift the live
// list's backing array during that sleep. Re-reading the live list after
// the check could hand back a different (inapplicable) instance than was
// checked.
func (c *CategoricalCache) scan(extra *CacheStats, proc *sim.Proc, lib *miopen.Library, pat miopen.Pattern, skipKey string, requireLoaded bool, p *miopen.Interned) (miopen.Instance, bool) {
	list := c.snapshot(c.lists[pat])
	defer c.release(list)
	for i := range list {
		cand := list[i]
		if cand.Path() == skipKey || requireLoaded && !lib.IsLoaded(cand) {
			continue
		}
		c.stats.Lookups++
		if extra != nil {
			extra.Lookups++
		}
		if lib.CheckApplicable(proc, cand, p) {
			if requireLoaded && !lib.IsLoaded(cand) {
				continue // evicted while the check slept
			}
			c.promoteKey(pat, cand.Path())
			c.stats.Hits++
			if extra != nil {
				extra.Hits++
			}
			return cand, true
		}
	}
	return miopen.Instance{}, false
}

// Stats returns the accumulated counters.
func (c *CategoricalCache) Stats() CacheStats { return c.stats }

// Len returns the total number of cached instances.
func (c *CategoricalCache) Len() int {
	n := 0
	for _, l := range c.lists {
		n += len(l)
	}
	return n
}

// NaiveCache is the flat cache used by the PaSK-R ablation: a single list
// mixing all patterns, exhaustively scanned on every query to find the
// best-performing applicable solution (paper §IV: PaSK-R "exhaustively
// checks the applicability of every cached solution"). Every query pays one
// applicability check per cached entry — the overhead the categorical
// organization eliminates (paper Fig 9b).
type NaiveCache struct {
	list  []miopen.Instance
	stats CacheStats
}

// NewNaiveCache returns an empty naive cache.
func NewNaiveCache() *NaiveCache { return &NaiveCache{} }

// Insert adds or refreshes an instance at the head.
func (c *NaiveCache) Insert(inst miopen.Instance) {
	for i := range c.list {
		if c.list[i].Path() == inst.Path() {
			promote(c.list, i)
			return
		}
	}
	c.stats.Inserts++
	c.list = append([]miopen.Instance{inst}, c.list...)
}

// GetSub checks every cached instance regardless of pattern and returns the
// applicable one with the best predicted performance.
func (c *NaiveCache) GetSub(proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool) {
	c.stats.Queries++
	proc.Sleep(lib.RT.Host().CacheQueryFixed)
	best := -1
	var bestEst time.Duration
	for i := range c.list {
		c.stats.Lookups++
		if !lib.CheckApplicable(proc, c.list[i], p) {
			continue
		}
		est := c.list[i].Sol.Calls(p).Estimate(lib.Reg.Ctx().Dev)
		if best < 0 || est < bestEst {
			best, bestEst = i, est
		}
	}
	if best < 0 {
		return miopen.Instance{}, false
	}
	inst := c.list[best]
	promote(c.list, best)
	c.stats.Hits++
	return inst, true
}

// GetSubAny scans the flat list like GetSub but skips the unloadable wanted
// instance and any entry whose module is no longer resident.
func (c *NaiveCache) GetSubAny(proc *sim.Proc, lib *miopen.Library, want miopen.Instance, p *miopen.Interned) (miopen.Instance, bool) {
	c.stats.Queries++
	proc.Sleep(lib.RT.Host().CacheQueryFixed)
	best := -1
	var bestEst time.Duration
	for i := range c.list {
		if c.list[i].Path() == want.Path() || !lib.IsLoaded(c.list[i]) {
			continue
		}
		c.stats.Lookups++
		if !lib.CheckApplicable(proc, c.list[i], p) {
			continue
		}
		est := c.list[i].Sol.Calls(p).Estimate(lib.Reg.Ctx().Dev)
		if best < 0 || est < bestEst {
			best, bestEst = i, est
		}
	}
	if best < 0 {
		return miopen.Instance{}, false
	}
	inst := c.list[best]
	promote(c.list, best)
	c.stats.Hits++
	return inst, true
}

// Stats returns the accumulated counters.
func (c *NaiveCache) Stats() CacheStats { return c.stats }

// Len returns the number of cached instances.
func (c *NaiveCache) Len() int { return len(c.list) }
