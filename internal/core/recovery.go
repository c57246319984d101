package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"pask/internal/graphx"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
)

// ErrNoUsableSolution is returned when a layer's chosen solution cannot be
// loaded and the degradation ladder finds no applicable substitute either —
// the request is genuinely unservable on this instance.
var ErrNoUsableSolution = errors.New("core: no usable solution")

// Substitution records one degraded layer: the instance the compiler chose
// and the one that actually ran. Forced substitutions come from the fault
// ladder (load failure), unforced ones from ordinary selective reuse.
type Substitution struct {
	Layer  string
	Want   miopen.Instance
	Got    miopen.Instance
	Prob   miopen.Problem
	Forced bool
}

func wrapNoUsable(layer string, cause error) error {
	return fmt.Errorf("%w for layer %s: %w", ErrNoUsableSolution, layer, cause)
}

// loadOrRecover loads the layer's chosen instance and caches it. When the
// load fails it returns the error under noDegradation (fail-fast), else it
// walks the degradation ladder and wraps ErrNoUsableSolution if nothing
// fits. It returns the instance to run and whether that is a substitute.
func loadOrRecover(p *sim.Proc, r *graphx.Runner, cache Cache, res *Result, noDegradation bool, layer string, want miopen.Instance, prob *miopen.Interned) (miopen.Instance, bool, error) {
	err := r.Lib.EnsureLoaded(p, want)
	if err == nil {
		cache.Insert(want)
		return want, false, nil
	}
	if noDegradation {
		return miopen.Instance{}, false, err
	}
	res.LoadFailures++
	if sub, ok := ladder(p, r, cache, res, "recover:", layer, want, prob, nil); ok {
		return sub, true, nil
	}
	return miopen.Instance{}, false, wrapNoUsable(layer, err)
}

// ladder is the degradation ladder for a layer that cannot run want
// (Algorithm 1 extended with forced reuse): first any applicable
// already-loaded instance from the cache, then the generality ladder —
// alternative solutions for the problem, most generic first, whichever
// loads. When admit is non-nil, both steps take only the candidates it
// admits. The search is traced as a recovery span named span+layer. It
// returns the replacement and whether one was found; the caller fails the
// layer otherwise.
func ladder(p *sim.Proc, r *graphx.Runner, cache Cache, res *Result, span, layer string, want miopen.Instance, prob *miopen.Interned, admit func(miopen.Instance) bool) (miopen.Instance, bool) {
	start := p.Now()
	defer func() {
		r.Tracer.AddNamed(metrics.CatRecovery, span, layer, p.Name(), start, p.Now())
	}()
	if sub, ok := cache.GetSubAny(p, r.Lib, want, prob); ok && (admit == nil || admit(sub)) {
		res.ForcedReuse++
		res.Substitutions = append(res.Substitutions, Substitution{
			Layer: layer, Want: want, Got: sub, Prob: prob.Problem, Forced: true,
		})
		return sub, true
	}
	// Nothing resident fits: climb down the generality ladder and try to
	// load an alternative object for this problem, most generic first.
	ranked := r.Lib.Find(&prob.Problem)
	slices.SortStableFunc(ranked, func(a, b miopen.Ranked) int {
		return cmp.Compare(a.Inst.Sol.Specificity(), b.Inst.Sol.Specificity())
	})
	for _, cand := range ranked {
		if cand.Inst.Path() == want.Path() || admit != nil && !admit(cand.Inst) {
			continue
		}
		if err := r.Lib.EnsureLoaded(p, cand.Inst); err != nil {
			continue
		}
		cache.Insert(cand.Inst)
		res.LadderFallbacks++
		res.Substitutions = append(res.Substitutions, Substitution{
			Layer: layer, Want: want, Got: cand.Inst, Prob: prob.Problem, Forced: true,
		})
		return cand.Inst, true
	}
	return miopen.Instance{}, false
}
