package miopen

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"pask/internal/codeobj"
)

// Ranked is one applicable instance with its predicted GPU time.
type Ranked struct {
	Inst Instance
	Est  time.Duration
}

// Registry holds every solution the library ships and answers Find queries.
// One registry serves every process of a set-up, so it also holds what those
// processes would otherwise each re-derive: the resident list and the
// applicability verdicts.
type Registry struct {
	ctx       *Ctx
	sols      []*Solution
	byID      map[string]*Solution
	residents []Instance

	// verdicts memoizes IsApplicable outcomes for every process of the
	// set-up. A verdict is a pure function of (solution, binding, problem,
	// workspace limit), so a process that repeats a check another already
	// made skips re-deriving binding keys and walking predicates. Only
	// host-side CPU work is saved: each Library still charges every check.
	// Concurrent cold starts on one set-up share it, hence the lock; once
	// the first process has asked, nearly every check is a read.
	verdictMu sync.RWMutex
	verdicts  map[applicKey]bool
}

// applicKey identifies one memoized applicability verdict: the instance's
// binding record (which also names its solution), the problem and the
// workspace limit, which is part of the key because tests mutate it
// directly on the Ctx.
type applicKey struct {
	b       *binding
	prob    Problem
	wsLimit int64
}

// NewRegistry builds the full library (conv + pooling + activation ladders)
// for the given context.
func NewRegistry(ctx *Ctx) *Registry {
	r := &Registry{ctx: ctx, byID: make(map[string]*Solution), verdicts: make(map[applicKey]bool)}
	for _, set := range [][]*Solution{ConvSolutions(), PoolSolutions(), ActSolutions()} {
		for _, s := range set {
			if _, dup := r.byID[s.ID()]; dup {
				panic("miopen: duplicate solution id " + s.ID())
			}
			r.sols = append(r.sols, s)
			r.byID[s.ID()] = s
			if s.Specificity() == 1 {
				r.residents = append(r.residents, s.Instance(""))
				continue
			}
			for _, b := range s.residentBindings {
				r.residents = append(r.residents, s.Instance(b))
			}
		}
	}
	return r
}

// Ctx returns the registry's validation context.
func (r *Registry) Ctx() *Ctx { return r.ctx }

// Solutions returns all registered solutions.
func (r *Registry) Solutions() []*Solution { return r.sols }

// ByID looks up a solution by its stable name.
func (r *Registry) ByID(id string) (*Solution, bool) {
	s, ok := r.byID[id]
	return s, ok
}

// applicable returns inst.IsApplicable(r.ctx, p) through the shared verdict
// table, evaluating and recording it on first use.
func (r *Registry) applicable(inst Instance, p *Problem) bool {
	k := applicKey{b: inst.b, prob: *p, wsLimit: r.ctx.WorkspaceLimit}
	r.verdictMu.RLock()
	v, ok := r.verdicts[k]
	r.verdictMu.RUnlock()
	if ok {
		return v
	}
	v = inst.IsApplicable(r.ctx, p)
	r.verdictMu.Lock()
	r.verdicts[k] = v
	r.verdictMu.Unlock()
	return v
}

// Find returns every applicable instance for p ranked fastest-first — the
// library's find step (paper Fig 3). Ties break toward higher specificity,
// then lexical ID, keeping compilation deterministic.
func (r *Registry) Find(p *Problem) []Ranked {
	var out []Ranked
	for _, s := range r.sols {
		if !s.IsApplicable(r.ctx, p) {
			continue
		}
		out = append(out, Ranked{Inst: Bind(s, p), Est: EstimateTime(r.ctx.Dev, s, p)})
	}
	slices.SortFunc(out, func(a, b Ranked) int {
		if a.Est != b.Est {
			return cmp.Compare(a.Est, b.Est)
		}
		if sa, sb := a.Inst.Sol.Specificity(), b.Inst.Sol.Specificity(); sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(a.Inst.Key(), b.Inst.Key())
	})
	return out
}

// FindBest returns the fastest applicable instance for p.
func (r *Registry) FindBest(p *Problem) (Ranked, error) {
	ranked := r.Find(p)
	if len(ranked) == 0 {
		return Ranked{}, fmt.Errorf("miopen: no applicable solution for %s", p.Key())
	}
	return ranked[0], nil
}

// PerfDB memoizes Find results per problem key — the integrated performance
// database the serving framework queries during lowering (paper §II-A).
type PerfDB struct {
	reg    *Registry
	m      map[string][]Ranked
	hits   int
	misses int
}

// NewPerfDB returns an empty database over the registry.
func NewPerfDB(reg *Registry) *PerfDB {
	return &PerfDB{reg: reg, m: make(map[string][]Ranked)}
}

// Find returns the ranked applicable instances for p, computing and caching
// them on first use.
func (db *PerfDB) Find(p *Problem) []Ranked {
	key := p.Key()
	if r, ok := db.m[key]; ok {
		db.hits++
		return r
	}
	db.misses++
	r := db.reg.Find(p)
	db.m[key] = r
	return r
}

// Entries returns the number of memoized problems.
func (db *PerfDB) Entries() int { return len(db.m) }

// HitRate returns the fraction of Find calls served from the cache.
func (db *PerfDB) HitRate() float64 {
	total := db.hits + db.misses
	if total == 0 {
		return 0
	}
	return float64(db.hits) / float64(total)
}

// Residents returns the instances whose kernels ship precompiled inside the
// library binary: the naive generic solutions (specificity 1) and the
// binary-shipped mid-tier solvers (the "Bin" kernels, one precompiled
// variant per supported element type). After the library is opened they are
// resident without any per-model load, which is what makes them the
// universal reuse fallback PASK's cache holds. Per-problem compiled
// specialists are never resident — they are what the cold start loads.
//
// The list is computed once, at NewRegistry, and every call returns that
// same slice: callers must not modify it.
func (r *Registry) Residents() []Instance { return r.residents }

// MaterializeObjects requests the code object of every instance the store
// does not hold yet — the offline preparation step that populates the
// on-disk kernel registry. The batch's Put builds them.
func MaterializeObjects(b *codeobj.Batch, arch string, insts []Instance) {
	for _, inst := range insts {
		if path := inst.Path(); b.Need(path) {
			b.Add(path, arch, inst.Sol.ObjectSpec(inst.Binding()))
		}
	}
}
