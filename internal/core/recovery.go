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
func loadOrRecover(p *sim.Proc, r *graphx.Runner, cache Cache, res *Result, noDegradation bool, layer string, want miopen.Instance, prob *miopen.Problem) (miopen.Instance, bool, error) {
	err := r.Lib.EnsureLoaded(p, want)
	if err == nil {
		cache.Insert(want)
		return want, false, nil
	}
	if noDegradation {
		return miopen.Instance{}, false, err
	}
	if sub, ok := recoverLoadFailure(p, r, cache, res, layer, want, prob); ok {
		return sub, true, nil
	}
	return miopen.Instance{}, false, wrapNoUsable(layer, err)
}

// recoverLoadFailure implements the degradation ladder for a primitive whose
// chosen code object failed to load (Algorithm 1 extended with forced
// reuse): first any applicable already-loaded instance from the cache, then
// the generality ladder — alternative solutions for the problem, most
// generic first, whichever loads. Returns the replacement and whether one
// was found; the caller fails the layer otherwise.
func recoverLoadFailure(p *sim.Proc, r *graphx.Runner, cache Cache, res *Result, layer string, want miopen.Instance, prob *miopen.Problem) (miopen.Instance, bool) {
	res.LoadFailures++
	start := p.Now()
	defer func() {
		r.Tracer.AddNamed(metrics.CatRecovery, "recover:", layer, p.Name(), start, p.Now())
	}()
	if sub, ok := cache.GetSubAny(p, r.Lib, want, prob); ok {
		res.ForcedReuse++
		res.Substitutions = append(res.Substitutions, Substitution{
			Layer: layer, Want: want, Got: sub, Prob: *prob, Forced: true,
		})
		return sub, true
	}
	// Nothing resident fits: climb down the generality ladder and try to
	// load an alternative object for this problem, most generic first.
	ranked := r.Lib.Find(prob)
	slices.SortStableFunc(ranked, func(a, b miopen.Ranked) int {
		return cmp.Compare(a.Inst.Sol.Specificity(), b.Inst.Sol.Specificity())
	})
	for _, cand := range ranked {
		if cand.Inst.Key() == want.Key() {
			continue
		}
		if err := r.Lib.EnsureLoaded(p, cand.Inst); err != nil {
			continue
		}
		cache.Insert(cand.Inst)
		res.LadderFallbacks++
		res.Substitutions = append(res.Substitutions, Substitution{
			Layer: layer, Want: want, Got: cand.Inst, Prob: *prob, Forced: true,
		})
		return cand.Inst, true
	}
	return miopen.Instance{}, false
}

// agnosticSubstitute ensures a primitive can run on data left in its
// incoming layout after a planned interchange kernel failed to load and was
// elided. If the chosen instance is already layout-agnostic it stands;
// otherwise an agnostic replacement comes from the cache or the ladder.
func agnosticSubstitute(p *sim.Proc, r *graphx.Runner, cache Cache, res *Result, layer string, chosen miopen.Instance, prob *miopen.Problem) (miopen.Instance, bool, error) {
	if _, agnostic := chosen.Sol.PreferredLayout(prob); agnostic {
		return chosen, false, nil
	}
	start := p.Now()
	defer func() {
		r.Tracer.AddNamed(metrics.CatRecovery, "agnostic:", layer, p.Name(), start, p.Now())
	}()
	if sub, ok := cache.GetSubAny(p, r.Lib, chosen, prob); ok {
		if _, agnostic := sub.Sol.PreferredLayout(prob); agnostic {
			res.ForcedReuse++
			res.Substitutions = append(res.Substitutions, Substitution{
				Layer: layer, Want: chosen, Got: sub, Prob: *prob, Forced: true,
			})
			return sub, true, nil
		}
	}
	ranked := r.Lib.Find(prob)
	slices.SortStableFunc(ranked, func(a, b miopen.Ranked) int {
		return cmp.Compare(a.Inst.Sol.Specificity(), b.Inst.Sol.Specificity())
	})
	for _, cand := range ranked {
		if _, agnostic := cand.Inst.Sol.PreferredLayout(prob); !agnostic {
			continue
		}
		if err := r.Lib.EnsureLoaded(p, cand.Inst); err != nil {
			continue
		}
		cache.Insert(cand.Inst)
		res.LadderFallbacks++
		res.Substitutions = append(res.Substitutions, Substitution{
			Layer: layer, Want: chosen, Got: cand.Inst, Prob: *prob, Forced: true,
		})
		return cand.Inst, true, nil
	}
	return miopen.Instance{}, false, wrapNoUsable(layer, errors.New("no layout-agnostic substitute after elided transform"))
}
