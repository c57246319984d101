package miopen

import (
	"sync"
	"sync/atomic"
)

// Interned is one distinct problem of a registry: the descriptor, the dense
// ID the registry gave it and the applicability verdicts every process of
// the set-up shares. Records come from Registry.Intern, which hashes the
// problem once; compiled instructions hold theirs, so the launch and reuse
// paths index tables by ID and never hash a Problem.
type Interned struct {
	Problem
	id  int
	reg *Registry

	// verdicts holds the IsApplicable outcomes on the problem, two bits
	// per binding index (set bit 0: known; bit 1: the verdict). Readers
	// load it without a lock; verdictMu serializes writers, which grow it
	// into a copy, so no recorded verdict is lost.
	verdicts  atomic.Pointer[[]atomic.Uint32]
	verdictMu sync.Mutex
}

// Registry returns the registry that interned the problem.
func (p *Interned) Registry() *Registry { return p.reg }

const verdictsPerWord = 16

// Intern returns the registry's record for p, adding it on first use. The
// record holds a copy of p, so callers may reuse p.
func (r *Registry) Intern(p *Problem) *Interned {
	r.internMu.Lock()
	defer r.internMu.Unlock()
	if ip, ok := r.interned[*p]; ok {
		return ip
	}
	ip := &Interned{Problem: *p, id: len(r.interned), reg: r}
	r.interned[*p] = ip
	return ip
}

// verdict returns the recorded verdict of the binding at index b on p, and
// whether one is recorded.
func (p *Interned) verdict(b int) (v, ok bool) {
	if t := p.verdicts.Load(); t != nil && b/verdictsPerWord < len(*t) {
		bits := (*t)[b/verdictsPerWord].Load() >> (2 * (b % verdictsPerWord))
		return bits&2 != 0, bits&1 != 0
	}
	return false, false
}

// record stores the verdict of the binding at index b on p. nBindings, the
// registry's binding count, sizes a new or grown table so that later
// bindings rarely grow it again.
func (p *Interned) record(b, nBindings int, v bool) {
	p.verdictMu.Lock()
	defer p.verdictMu.Unlock()
	t := p.verdicts.Load()
	if t == nil || b/verdictsPerWord >= len(*t) {
		n := max(b, nBindings)/verdictsPerWord + 1
		var old []atomic.Uint32
		if t != nil {
			old = *t
			n = max(n, 2*len(old))
		}
		grown := make([]atomic.Uint32, n)
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		p.verdicts.Store(&grown)
		t = &grown
	}
	bits := uint32(1)
	if v {
		bits = 3
	}
	// Writers hold verdictMu, so a plain read-modify-write loses nothing;
	// the atomic store is what lock-free readers load.
	w := &(*t)[b/verdictsPerWord]
	w.Store(w.Load() | bits<<(2*(b%verdictsPerWord)))
}
