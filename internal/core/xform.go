package core

import (
	"errors"

	"pask/internal/graphx"
	"pask/internal/miopen"
	"pask/internal/sim"
)

// xforms applies the rules a primitive layer's interchange transforms follow
// in both engines. A transform that only feeds the next primitive's
// preferred layout is held until that primitive is decided: it is dropped
// when the primitive runs on a layout-agnostic substitute and flushed
// otherwise. A transform whose object fails to load is elided, and the
// primitive that consumes its output must then run layout-agnostic. Each
// engine supplies only run, how it runs one transform.
type xforms struct {
	r     *graphx.Runner
	cache Cache
	res   *Result
	// run runs one transform; an error means its object failed to load.
	run func(p *sim.Proc, tr *graphx.Instruction) error
	// noDegradation returns a transform's load failure instead of eliding
	// the transform.
	noDegradation bool
	// noElision flushes a held transform even when its consumer runs on a
	// layout-agnostic substitute.
	noElision bool

	pending *graphx.Instruction // held feed-next transform
	// forceAgnostic is set when a transform was elided: data stay in their
	// incoming layout, so the next primitive must run layout-agnostic.
	forceAgnostic bool
}

// exec runs tr now. When its object fails to load, tr is elided unless
// degradation is off, in which case the error is returned.
func (x *xforms) exec(p *sim.Proc, tr *graphx.Instruction) error {
	err := x.run(p, tr)
	if err == nil || x.noDegradation {
		return err
	}
	x.res.ElidedXformFailures++
	x.res.SkippedTransforms++
	x.forceAgnostic = true
	return nil
}

// transform takes one transform instruction. One that only feeds the next
// primitive is held, after any held one runs (and stays held when that one
// fails); any other runs now.
func (x *xforms) transform(p *sim.Proc, tr *graphx.Instruction) error {
	if !tr.XformForNext {
		return x.exec(p, tr)
	}
	err := x.flush(p)
	x.pending = tr
	return err
}

// flush runs the held transform, if any.
func (x *xforms) flush(p *sim.Proc) error {
	tr := x.pending
	if tr == nil {
		return nil
	}
	x.pending = nil
	return x.exec(p, tr)
}

// settle decides the held transform at the primitive it feeds, which runs
// inst on prob (a substitute when usedSub). A layout-agnostic substitute
// runs in the incoming layout, so the transform and its load are dropped;
// any other instance gets the transform flushed.
func (x *xforms) settle(p *sim.Proc, inst miopen.Instance, prob *miopen.Interned, usedSub bool) error {
	if x.pending == nil {
		return nil
	}
	if _, agnostic := inst.Sol.PreferredLayout(&prob.Problem); usedSub && agnostic && !x.noElision {
		x.res.SkippedTransforms++
		x.pending = nil
		return nil
	}
	return x.flush(p)
}

// agnostic returns the instance the primitive layer runs on prob, and
// whether it is a substitute, given the decided inst. After an elided
// transform the data stay in their incoming layout: inst stands if it is
// layout-agnostic, else the degradation ladder supplies a layout-agnostic
// replacement.
func (x *xforms) agnostic(p *sim.Proc, layer string, inst miopen.Instance, prob *miopen.Interned, usedSub bool) (miopen.Instance, bool, error) {
	if !x.forceAgnostic {
		return inst, usedSub, nil
	}
	x.forceAgnostic = false
	isAgnostic := func(i miopen.Instance) bool {
		_, agnostic := i.Sol.PreferredLayout(&prob.Problem)
		return agnostic
	}
	if isAgnostic(inst) {
		return inst, usedSub, nil
	}
	if sub, ok := ladder(p, x.r, x.cache, x.res, "agnostic:", layer, inst, prob, isAgnostic); ok {
		return sub, true, nil
	}
	return miopen.Instance{}, false, wrapNoUsable(layer, errors.New("no layout-agnostic substitute after elided transform"))
}
