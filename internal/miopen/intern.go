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

	// verdicts holds one table per workspace limit seen, the latest created
	// or grown first. Readers walk it without a lock; verdictMu serializes
	// writers, so no recorded verdict is lost when a table grows.
	verdicts  atomic.Pointer[verdictTable]
	verdictMu sync.Mutex
}

// Registry returns the registry that interned the problem.
func (p *Interned) Registry() *Registry { return p.reg }

// verdictTable holds IsApplicable outcomes on one problem under one
// workspace limit, two bits per binding index (set bit 0: known; bit 1: the
// verdict). The limit is part of the table because tests change it on the
// Ctx directly.
type verdictTable struct {
	wsLimit int64
	words   []atomic.Uint32
	older   *verdictTable
}

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

// verdict returns the recorded verdict of the binding at index b on p under
// the workspace limit, and whether one is recorded.
func (p *Interned) verdict(wsLimit int64, b int) (v, ok bool) {
	for t := p.verdicts.Load(); t != nil; t = t.older {
		if t.wsLimit != wsLimit {
			continue
		}
		if w := b / verdictsPerWord; w < len(t.words) {
			bits := t.words[w].Load() >> (2 * (b % verdictsPerWord))
			return bits&2 != 0, bits&1 != 0
		}
		return false, false
	}
	return false, false
}

// record stores the verdict of the binding at index b on p under the
// workspace limit. nBindings, the registry's binding count, sizes a new or
// grown table so that later bindings rarely grow it again.
func (p *Interned) record(wsLimit int64, b, nBindings int, v bool) {
	p.verdictMu.Lock()
	defer p.verdictMu.Unlock()
	head := p.verdicts.Load()
	var t *verdictTable
	for t = head; t != nil && t.wsLimit != wsLimit; t = t.older {
	}
	if t == nil || b/verdictsPerWord >= len(t.words) {
		n := max(b, nBindings)/verdictsPerWord + 1
		var old []atomic.Uint32
		if t != nil {
			old = t.words
			n = max(n, 2*len(old))
		}
		grown := &verdictTable{wsLimit: wsLimit, words: make([]atomic.Uint32, n), older: without(head, t)}
		for i := range old {
			grown.words[i].Store(old[i].Load())
		}
		p.verdicts.Store(grown)
		t = grown
	}
	bits := uint32(1)
	if v {
		bits = 3
	}
	// Writers hold verdictMu, so a plain read-modify-write loses nothing;
	// the atomic store is what lock-free readers load.
	w := &t.words[b/verdictsPerWord]
	w.Store(w.Load() | bits<<(2*(b%verdictsPerWord)))
}

// without returns the table list from head with t left out, copying the
// tables ahead of t; the tables after it are shared.
func without(head, t *verdictTable) *verdictTable {
	if head == nil || head == t {
		if t == nil {
			return head
		}
		return t.older
	}
	cp := *head
	cp.older = without(head.older, t)
	return &cp
}
