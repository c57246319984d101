package miopen

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
// interned problems with their applicability verdicts. It hands out the
// dense IDs (problems, bindings, kernel calls, launch sites) that let
// a process keep its own per-launch state in slices.
type Registry struct {
	ctx       *Ctx
	sols      []*Solution
	byID      map[string]*Solution
	residents []Instance

	// interned maps each problem to its record; only Intern reads it.
	internMu sync.Mutex
	interned map[Problem]*Interned

	nBindings atomic.Int32 // binding records handed out (their indices)
	nCalls    atomic.Int32 // kernel calls handed out (their IDs)
	nSites    atomic.Int32 // launch sites handed out
}

// NewRegistry builds the full library (conv + pooling + activation ladders)
// for the given context.
func NewRegistry(ctx *Ctx) *Registry {
	r := &Registry{ctx: ctx, byID: make(map[string]*Solution), interned: make(map[Problem]*Interned)}
	for _, set := range [][]*Solution{ConvSolutions(), PoolSolutions(), ActSolutions()} {
		for _, s := range set {
			if _, dup := r.byID[s.ID()]; dup {
				panic("miopen: duplicate solution id " + s.ID())
			}
			s.reg, s.idx = r, len(r.sols)
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

// NewSite returns a new launch-site ID. Compilation gives each launch that
// binds its own function (engine builtins and transforms) one, so a
// process keeps those functions in a slice indexed by site.
func (r *Registry) NewSite() int { return int(r.nSites.Add(1)) - 1 }

// applicable returns inst.IsApplicable(r.ctx, p) through p's verdict table,
// evaluating and recording it on first use. A verdict is a pure function
// of the binding, the problem and r's context, which is fixed, so every
// process of the set-up reads what the first one recorded: only host CPU
// work is saved, and each Library still charges every check. Both inst and
// p must belong to r.
func (r *Registry) applicable(inst Instance, p *Interned) bool {
	if p.reg != r || inst.Sol.reg != r {
		panic("miopen: applicability check across registries")
	}
	if v, ok := p.verdict(inst.b.idx); ok {
		return v
	}
	v := inst.IsApplicable(r.ctx, &p.Problem)
	p.record(inst.b.idx, int(r.nBindings.Load()), v)
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
		return cmp.Compare(a.Inst.Path(), b.Inst.Path())
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
	reg *Registry
	m   map[string][]Ranked
}

// NewPerfDB returns an empty database over the registry.
func NewPerfDB(reg *Registry) *PerfDB {
	return &PerfDB{reg: reg, m: make(map[string][]Ranked)}
}

// Registry returns the registry the database ranks against.
func (db *PerfDB) Registry() *Registry { return db.reg }

// Find returns the ranked applicable instances for p, computing and caching
// them on first use.
func (db *PerfDB) Find(p *Problem) []Ranked {
	key := p.Key()
	if r, ok := db.m[key]; ok {
		return r
	}
	r := db.reg.Find(p)
	db.m[key] = r
	return r
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
