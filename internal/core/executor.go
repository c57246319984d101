package core

import (
	"fmt"
	"time"

	"pask/internal/tensor"

	"pask/internal/blas"
	"pask/internal/graphx"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
)

// Scheme names the evaluated configurations (paper §IV).
type Scheme string

const (
	SchemeBaseline Scheme = "Baseline" // reactive default workflow
	SchemeNNV12    Scheme = "NNV12"    // layout-uniform selection + pipelined loading
	SchemeIdeal    Scheme = "Ideal"    // all code objects resident
	SchemePaSK     Scheme = "PaSK"     // full design
	SchemePaSKI    Scheme = "PaSK-I"   // interleaving only
	SchemePaSKR    Scheme = "PaSK-R"   // reuse only, naive cache, no interleaving
)

// Schemes lists all evaluated schemes in presentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeBaseline, SchemeNNV12, SchemeIdeal, SchemePaSK, SchemePaSKI, SchemePaSKR}
}

// Reuses reports whether the scheme recycles loaded kernels through the
// caller's solution cache (PaSK and PaSK-R). Only these schemes consult
// the cache Run is given and return a Result from it.
func (s Scheme) Reuses() bool { return s == SchemePaSK || s == SchemePaSKR }

// NewCache returns the solution cache a scheme's runs consult, seeded with
// the library's resident generics: the flat naive cache for PaSK-R, the
// categorical cache otherwise.
func NewCache(s Scheme, lib *miopen.Library) Cache {
	var c Cache = NewCategoricalCache()
	if s == SchemePaSKR {
		c = NewNaiveCache()
	}
	SeedResidents(c, lib)
	return c
}

// Run executes a cold start of m under scheme. It is the one place a
// scheme picks its engine:
//
//   - Baseline runs the reactive default workflow;
//   - Ideal and NNV12 run the non-selective pipeline on a fresh, empty
//     cache with only opts.Profile: the §VI extensions and the pressure
//     signal are PASK's;
//   - PaSK-I runs the same engine with opts;
//   - PaSK runs the selective pipeline (Algorithm 1) and PaSK-R the
//     sequential reuse ablation, both on cache with opts.
//
// cache normally comes from NewCache; only the schemes that Reuse consult
// it, and only they return a Result (also on error, with the statistics
// gathered so far). Callers pick the plan (NNV12 runs the layout-uniform
// one) and, for Ideal, preload it first.
func Run(p *sim.Proc, r *graphx.Runner, m *graphx.CompiledModel, scheme Scheme, cache Cache, opts Options) (*Result, error) {
	switch scheme {
	case SchemeBaseline:
		return nil, r.RunBaseline(p, m)
	case SchemeIdeal, SchemeNNV12:
		opts = Options{Profile: opts.Profile}
		fallthrough
	case SchemePaSKI:
		_, err := RunInterleaved(p, r, m, NewCategoricalCache(), false, opts)
		return nil, err
	case SchemePaSK:
		return RunInterleaved(p, r, m, cache, true, opts)
	case SchemePaSKR:
		return RunSequentialReuse(p, r, m, cache, opts)
	}
	return nil, fmt.Errorf("core: unknown scheme %q (one of %v)", scheme, Schemes())
}

// Options tune the PASK executors. The sequential engine (PaSK-R through
// RunSequentialReuse, warm requests through RunWarmReuse) honours only
// NoDegradation and Pressure: PrecisionPreference, BlasScope, NoEagerPhase
// and NoTransformElision shape the interleaved pipeline's decisions, and
// Profile observes its loading thread, so the sequential engine ignores
// them.
type Options struct {
	// BlasScope extends PASK's loading/reuse management to the BLAS library
	// (paper §VI "Library supporting").
	BlasScope bool
	// PrecisionPreference lets PASK run a reduced-precision layer with an
	// already-loaded full-precision kernel instead of loading the absent
	// low-precision specialist (paper §VI "More factors for kernel
	// specialization").
	PrecisionPreference bool
	// NoTransformElision disables dynamic layout tracking: planned
	// interchange kernels always load and run (design ablation).
	NoTransformElision bool
	// NoEagerPhase applies the selective policy from the first layer
	// instead of loading unconditionally before the milestone (design
	// ablation of §III-A's milestone rule).
	NoEagerPhase bool
	// NoDegradation restores fail-fast semantics: a code-object load
	// failure aborts the run instead of engaging the recovery ladder
	// (forced reuse, generality fallback, transform elision).
	NoDegradation bool
	// Profile, when non-nil, receives the loader thread's realized
	// decisions — which code objects the run committed to and where the
	// executed solution differed from the statically selected one. The
	// warmup package's Recorder implements it to build load profiles for
	// cross-run prefetching.
	Profile ProfileObserver
	// Pressure, when non-nil, is polled at every primitive decision: at
	// PressureElevated a selective-phase categorical miss tries forced
	// cross-category reuse before loading; at PressureSevere the eager phase
	// too prefers resident substitutes over unconditional loads. The serving
	// layer's brownout controller raises it under queueing pressure.
	Pressure PressureSource
}

// pressure returns the options' current pressure level (nominal when no
// source is wired).
func (o Options) pressure() PressureLevel {
	if o.Pressure == nil {
		return PressureNominal
	}
	return o.Pressure.Pressure()
}

// ProfileObserver is the seam profile recording hangs off the interleaved
// executor's loading thread. Implementations must be cheap and must not
// touch simulated time: observations happen inline on the loader.
type ProfileObserver interface {
	// ObserveObject reports a code object the run committed to using, with
	// its kind ("solution", "transform", "builtin" or "blas").
	ObserveObject(kind, path string)
	// ObserveDecision reports one primitive layer's outcome: the statically
	// selected solution key, the key that actually ran, and whether they
	// differ (a reuse or degradation substitution).
	ObserveDecision(layer, pattern, selected, chosen string, substituted bool)
}

// Result carries PASK's run statistics.
type Result struct {
	Cache             CacheStats
	Milestone         int // primitive layers decided eagerly before the parser finished
	SkippedLoads      int // solution loads avoided through reuse
	SkippedTransforms int // layout transforms dropped with layout-agnostic substitutes
	CacheLen          int
	// PrecisionFallbacks counts layers served by a full-precision kernel
	// under the precision-preference extension.
	PrecisionFallbacks int
	// Skipped lists the statically selected instances whose loads were
	// avoided — the candidates for inter-request background loading (§VI).
	Skipped []miopen.Instance
	// BLAS-scope statistics (§VI extension).
	BlasQueries, BlasHits, BlasSkipped int

	// Degradation-ladder statistics (fault recovery).
	LoadFailures        int // chosen-solution load failures absorbed by the ladder
	ForcedReuse         int // layers served by an already-loaded substitute after a failure
	LadderFallbacks     int // layers served by loading a more generic alternative
	ElidedXformFailures int // interchange kernels dropped because their object failed to load
	// PressureReuse counts layers served by a resident substitute purely
	// because the pressure signal forced reuse — loads the brownout avoided
	// that nominal Algorithm 1 would have issued.
	PressureReuse int
	// Substitutions records every degraded layer decision for auditing.
	Substitutions []Substitution
}

// Degraded reports how many layers ran on a substitute because of a fault.
func (r *Result) Degraded() int { return r.ForcedReuse + r.LadderFallbacks }

// issueItem is the message the loading thread sends to the issuing thread.
type issueItem struct {
	instr    *graphx.Instruction
	inst     miopen.Instance // primitive: instance to run (selected or substitute)
	prob     *miopen.Problem // primitive problem, possibly rewritten (precision fallback)
	blasInst *blas.Instance  // gemm under BlasScope; nil when the runner's Run decides
}

// pipeline carries the shared state of one interleaved run.
type pipeline struct {
	r         *graphx.Runner
	m         *graphx.CompiledModel
	cache     Cache
	selective bool
	opts      Options

	parseDone bool
	res       Result
	err       error

	// forceAgnostic is set when an interchange kernel's load failed and the
	// transform was elided: the next primitive must run layout-agnostic.
	forceAgnostic bool

	// blasList holds the BLAS instances this run has used, most recent
	// first. Its entries point into the library's find memo, so an issue
	// item carries a pointer where a value would widen every queued item.
	blasList []*blas.Instance
}

func (pl *pipeline) fail(err error) {
	if pl.err == nil {
		pl.err = err
	}
}

// observeObject forwards one committed code object to the profile observer.
func (pl *pipeline) observeObject(kind, path string) {
	if pl.opts.Profile != nil {
		pl.opts.Profile.ObserveObject(kind, path)
	}
}

// observeDecision reports a primitive layer's realized decision. The
// statically selected key is recomputed from the registry — a host-side
// lookup that costs nothing in virtual time.
func (pl *pipeline) observeDecision(instr *graphx.Instruction, chosen miopen.Instance, usedSub bool) {
	if pl.opts.Profile == nil {
		return
	}
	selected := ""
	if sel, err := instr.Instance(pl.r.Lib.Reg); err == nil {
		selected = sel.Path()
	}
	pl.opts.Profile.ObserveDecision(instr.Name, string(chosen.CacheKey()), selected, chosen.Path(),
		usedSub && selected != chosen.Path())
}

// addGetsub records one cache-query span with its outcome attributes — the
// per-pattern visibility Fig 9's lookup analysis needs.
func (pl *pipeline) addGetsub(name, thread string, start, end time.Duration, attrs ...metrics.Attr) {
	pl.r.Tracer.AddNamed(metrics.CatOverhead, "getsub:", name, thread, start, end, attrs...)
}

// RunInterleaved executes the model with PASK's three-thread pipeline. With
// selective=true this is full PaSK (Algorithm 1 after the milestone); with
// selective=false it is PaSK-I / NNV12-style unconditional pipelined loading.
// The call blocks (in virtual time) until the model completes.
func RunInterleaved(p *sim.Proc, r *graphx.Runner, m *graphx.CompiledModel, cache Cache, selective bool, opts Options) (*Result, error) {
	env := p.Env()
	pl := &pipeline{r: r, m: m, cache: cache, selective: selective, opts: opts}
	parsed := sim.NewChan[*graphx.Instruction](env, m.NumInstructions()+4)
	issue := sim.NewChan[issueItem](env, m.NumInstructions()+4)
	done := sim.NewSignal(env)

	env.Spawn("pask-parser", func(pp *sim.Proc) {
		pp.Sleep(r.RT.Host().IterOverhead)
		r.OpenModel(pp)
		for i := range m.Instrs {
			r.ParseOne(pp, &m.Instrs[i])
			parsed.Send(pp, &m.Instrs[i])
			r.Rec.Count("pask_parsed_queue", pp.Now(), float64(parsed.Len()))
		}
		pl.parseDone = true
		r.Rec.Instant("pask-parser", "milestone", pp.Now(),
			metrics.Attr{Key: "eager_layers", Value: fmt.Sprint(pl.res.Milestone)})
		parsed.Close()
	})

	env.Spawn("pask-loader", func(lp *sim.Proc) {
		defer issue.Close()
		// PASK tracks the running data layout: reusing layout-agnostic
		// substitutes leaves tensors in their incoming layout, so planned
		// interchange kernels become stale and their loads are elided.
		curLayout := tensor.NCHW
		var pending *graphx.Instruction // deferred next-primitive transform
		runTransform := func(sp *sim.Proc, tr *graphx.Instruction) {
			if pl.selective && !pl.opts.NoTransformElision &&
				(curLayout != tr.XformSrc || curLayout == tr.XformDst) {
				// Stale under dynamic layout tracking: nothing to convert.
				pl.res.SkippedTransforms++
				return
			}
			if _, err := pl.r.RT.ModuleLoad(sp, tr.XformPath); err != nil {
				if !pl.opts.NoDegradation {
					// Degrade: drop the interchange and force the consuming
					// primitive onto a layout-agnostic instance. Data stays
					// in curLayout, so downstream tracking remains sound.
					pl.res.ElidedXformFailures++
					pl.res.SkippedTransforms++
					pl.forceAgnostic = true
					return
				}
				pl.fail(err)
				return
			}
			curLayout = tr.XformDst
			pl.observeObject("transform", tr.XformPath)
			issue.Send(sp, issueItem{instr: tr})
		}
		flushPending := func(sp *sim.Proc) {
			if pending == nil {
				return
			}
			tr := pending
			pending = nil
			runTransform(sp, tr)
		}
		for {
			instr, ok := parsed.Recv(lp)
			if !ok {
				flushPending(lp)
				return
			}
			r.Rec.Count("pask_parsed_queue", lp.Now(), float64(parsed.Len()))
			r.Rec.Count("pask_cache_size", lp.Now(), float64(pl.cache.Len()))
			if pl.err != nil {
				continue // drain after failure
			}
			switch instr.Kind {
			case graphx.KindTransform:
				if instr.XformForNext {
					flushPending(lp)
					pending = instr
					continue
				}
				runTransform(lp, instr)

			case graphx.KindBuiltin:
				flushPending(lp)
				if _, err := pl.r.RT.ModuleLoad(lp, graphx.BuiltinObjectPath); err != nil {
					pl.fail(err)
					continue
				}
				pl.observeObject("builtin", graphx.BuiltinObjectPath)
				issue.Send(lp, issueItem{instr: instr})

			case graphx.KindGemm:
				flushPending(lp)
				item := issueItem{instr: instr}
				if pl.opts.BlasScope {
					if inst := pl.decideGemm(lp, instr); inst != nil {
						item.blasInst = inst
						pl.observeObject("blas", inst.Path())
					}
				}
				issue.Send(lp, item)

			case graphx.KindPrimitive:
				inst, prob, usedSub, err := pl.decidePrimitive(lp, instr)
				if err != nil {
					pl.fail(err)
					continue
				}
				if pending != nil {
					if _, ag := inst.Sol.PreferredLayout(prob); usedSub && ag && !pl.opts.NoTransformElision {
						// The substitute runs in the incoming layout: the
						// planned transform (and its load) is unnecessary.
						pl.res.SkippedTransforms++
						pending = nil
					} else {
						flushPending(lp)
					}
				}
				if pl.forceAgnostic {
					// The transform feeding this primitive was elided after a
					// load failure: re-check the decision in the incoming
					// layout.
					pl.forceAgnostic = false
					sub, changed, aerr := agnosticSubstitute(lp, pl.r, pl.cache, &pl.res, instr.Name, inst, prob)
					if aerr != nil {
						pl.fail(aerr)
						continue
					}
					inst = sub
					usedSub = usedSub || changed
				}
				pref, agnostic := inst.Sol.PreferredLayout(prob)
				if !usedSub && !agnostic {
					curLayout = pref
				}
				pl.observeObject("solution", inst.Path())
				pl.observeDecision(instr, inst, usedSub)
				issue.Send(lp, issueItem{instr: instr, inst: inst, prob: prob})
			}
		}
	})

	env.Spawn("pask-issuer", func(ip *sim.Proc) {
		defer done.Fire()
		r.CopyParams(ip, m)
		for {
			item, ok := issue.Recv(ip)
			if !ok {
				break
			}
			r.Rec.Count("pask_issue_queue", ip.Now(), float64(issue.Len()))
			if pl.err != nil {
				continue
			}
			var err error
			switch {
			case item.instr.Kind == graphx.KindPrimitive:
				prob := item.prob
				if prob == nil {
					prob = &item.instr.Problem
				}
				err = r.ExecPrimitiveAs(ip, item.instr.Name, prob, item.inst)
			case item.blasInst != nil:
				start := ip.Now()
				err = r.Blas.RunInstance(ip, r.Stream, &item.instr.Gemm, *item.blasInst)
				r.Tracer.AddNamed(metrics.CatLaunch, "issue:", item.instr.Name, ip.Name(), start, ip.Now())
			default:
				err = r.ExecInstr(ip, item.instr)
			}
			if err != nil {
				pl.fail(err)
			}
		}
		if pl.err == nil {
			r.Sync(ip)
		}
	})

	done.Wait(p)
	pl.res.Cache = cache.Stats()
	pl.res.CacheLen = cache.Len()
	return &pl.res, pl.err
}

// decidePrimitive implements Algorithm 1's per-layer decision on the loading
// thread: before the milestone load unconditionally; afterwards prefer the
// already-loaded s*, then a cached substitute, then load s*. It returns the
// instance to run and the (possibly precision-rewritten) problem.
func (pl *pipeline) decidePrimitive(lp *sim.Proc, instr *graphx.Instruction) (miopen.Instance, *miopen.Problem, bool, error) {
	lib := pl.r.Lib
	prob := &instr.Problem
	sInst, err := instr.Instance(lib.Reg)
	if err != nil {
		return miopen.Instance{}, prob, false, err
	}
	selectivePhase := pl.selective && (pl.parseDone || pl.opts.NoEagerPhase)
	if !selectivePhase {
		if pl.selective && pl.opts.pressure() >= PressureSevere {
			// Severe brownout overrides the milestone rule: even eager-phase
			// layers run on a resident substitute when one applies, so the
			// cold path issues no avoidable loads while the fleet is drowning.
			if sub, ok := pl.pressureSub(lp, true, instr.Name, sInst, prob); ok {
				pl.res.Milestone++
				return sub, prob, true, nil
			}
		}
		pl.res.Milestone++
		run, substituted, err := loadOrRecover(lp, pl.r, pl.cache, &pl.res, pl.opts.NoDegradation, instr.Name, sInst, prob)
		return run, prob, substituted, err
	}
	if lib.IsLoaded(sInst) {
		pl.cache.Insert(sInst)
		return sInst, prob, false, nil
	}
	start := lp.Now()
	sub, ok := pl.cache.GetSub(lp, lib, sInst, prob)
	if !ok && pl.opts.PrecisionPreference && prob.DType != tensor.F32 {
		// §VI extension: retry the query at full precision — a resident
		// fp32 kernel beats loading the absent low-precision specialist.
		f32 := *prob
		f32.DType = tensor.F32
		if ranked := lib.Find(&f32); len(ranked) > 0 {
			if sub32, ok32 := pl.cache.GetSub(lp, lib, ranked[0].Inst, &f32); ok32 {
				pl.addGetsub(instr.Name, lp.Name(), start, lp.Now(),
					metrics.Attr{Key: "hit", Value: "true"},
					metrics.Attr{Key: "solution", Value: sub32.Key()},
					metrics.Attr{Key: "precision_fallback", Value: "true"})
				pl.res.SkippedLoads++
				pl.res.PrecisionFallbacks++
				pl.res.Skipped = append(pl.res.Skipped, sInst)
				probCopy := f32
				return sub32, &probCopy, true, nil
			}
		}
	}
	if ok {
		pl.addGetsub(instr.Name, lp.Name(), start, lp.Now(),
			metrics.Attr{Key: "hit", Value: "true"},
			metrics.Attr{Key: "solution", Value: sub.Key()})
		pl.res.SkippedLoads++
		pl.res.Skipped = append(pl.res.Skipped, sInst)
		return sub, prob, true, nil
	}
	pl.addGetsub(instr.Name, lp.Name(), start, lp.Now(),
		metrics.Attr{Key: "hit", Value: "false"})
	if pl.opts.pressure() >= PressureElevated {
		// Brownout: before paying a demand load, accept any applicable
		// already-loaded instance — the forced-reuse step of the fault
		// ladder, engaged by queueing pressure instead of a load failure.
		if sub, ok := pl.pressureSub(lp, false, instr.Name, sInst, prob); ok {
			return sub, prob, true, nil
		}
	}
	run, substituted, err := loadOrRecover(lp, pl.r, pl.cache, &pl.res, pl.opts.NoDegradation, instr.Name, sInst, prob)
	return run, prob, substituted, err
}

// pressureSub looks for a resident substitute under brownout pressure:
// optionally the categorical lookup first (a same-pattern match is the
// better kernel), then forced cross-category reuse. Hits are counted apart
// from fault-driven reuse so experiments can attribute avoided loads to the
// pressure signal.
func (pl *pipeline) pressureSub(lp *sim.Proc, tryCategorical bool, layer string, want miopen.Instance, prob *miopen.Problem) (miopen.Instance, bool) {
	start := lp.Now()
	var sub miopen.Instance
	ok := false
	if tryCategorical {
		sub, ok = pl.cache.GetSub(lp, pl.r.Lib, want, prob)
	}
	if !ok {
		sub, ok = pl.cache.GetSubAny(lp, pl.r.Lib, want, prob)
	}
	pl.addGetsub(layer, lp.Name(), start, lp.Now(),
		metrics.Attr{Key: "hit", Value: fmt.Sprint(ok)},
		metrics.Attr{Key: "pressure", Value: pl.opts.pressure().String()})
	if !ok {
		return miopen.Instance{}, false
	}
	pl.res.SkippedLoads++
	pl.res.PressureReuse++
	pl.res.Skipped = append(pl.res.Skipped, want)
	pl.res.Substitutions = append(pl.res.Substitutions, Substitution{
		Layer: layer, Want: want, Got: sub, Prob: *prob, Forced: true,
	})
	return sub, true
}

// decideGemm applies the same policy to BLAS kernels under the §VI
// extension. Returns the instance to run, or nil when none was decided.
func (pl *pipeline) decideGemm(lp *sim.Proc, instr *graphx.Instruction) *blas.Instance {
	ranked := pl.r.Blas.Find(&instr.Gemm)
	if len(ranked) == 0 {
		return nil
	}
	chosen := &ranked[0].Inst
	if err := pl.r.Blas.EnsureCore(lp); err != nil {
		pl.fail(err)
		return nil
	}
	if !pl.selective || !pl.parseDone {
		if _, err := pl.r.RT.ModuleLoad(lp, chosen.Path()); err != nil {
			pl.fail(err)
			return nil
		}
		pl.insertBlas(chosen)
		return chosen
	}
	if pl.r.RT.Loaded(chosen.Path()) {
		pl.insertBlas(chosen)
		return chosen
	}
	pl.res.BlasQueries++
	start := lp.Now()
	for i := range pl.blasList {
		lp.Sleep(pl.r.RT.Host().ApplicabilityCheck)
		if pl.blasList[i].Applicable(pl.r.RT.GPU().Profile, &instr.Gemm) {
			inst := pl.blasList[i]
			pl.blasList = promote(pl.blasList, i)
			pl.res.BlasHits++
			pl.res.BlasSkipped++
			pl.r.Tracer.AddNamed(metrics.CatOverhead, "getsub-blas:", instr.Name, lp.Name(), start, lp.Now())
			return inst
		}
	}
	pl.r.Tracer.AddNamed(metrics.CatOverhead, "getsub-blas:", instr.Name, lp.Name(), start, lp.Now())
	if _, err := pl.r.RT.ModuleLoad(lp, chosen.Path()); err != nil {
		pl.fail(err)
		return nil
	}
	pl.insertBlas(chosen)
	return chosen
}

func (pl *pipeline) insertBlas(inst *blas.Instance) {
	for i := range pl.blasList {
		if pl.blasList[i].Path() == inst.Path() {
			pl.blasList = promote(pl.blasList, i)
			return
		}
	}
	pl.blasList = append([]*blas.Instance{inst}, pl.blasList...)
}

// RunSequentialReuse executes the PaSK-R ablation: no interleaving (parse
// everything, then run layer by layer on one thread) with reuse through the
// given cache — typically the NaiveCache with its exhaustive scans. Of opts
// it reads NoDegradation and the pressure signal the serving layer threads
// through here.
func RunSequentialReuse(p *sim.Proc, r *graphx.Runner, m *graphx.CompiledModel, cache Cache, opts Options) (*Result, error) {
	return runSequential(p, r, m, cache, true, opts)
}

// RunWarmReuse serves a request on a warm engine that retains the parsed
// program: layers still follow Algorithm 1 against the cache (paper §VI's
// subsequent-request behavior) but nothing is re-parsed. Of opts it reads
// NoDegradation and the pressure signal, like RunSequentialReuse.
func RunWarmReuse(p *sim.Proc, r *graphx.Runner, m *graphx.CompiledModel, cache Cache, opts Options) (*Result, error) {
	return runSequential(p, r, m, cache, false, opts)
}

func runSequential(p *sim.Proc, r *graphx.Runner, m *graphx.CompiledModel, cache Cache, parse bool, opts Options) (*Result, error) {
	res := &Result{}
	p.Sleep(r.RT.Host().IterOverhead)
	if parse {
		r.OpenModel(p)
		for i := range m.Instrs {
			r.ParseOne(p, &m.Instrs[i])
		}
	}
	r.CopyParams(p, m)
	var pending *graphx.Instruction
	forceAgnostic := false
	// runTransformSeq executes an interchange kernel, degrading on a load
	// failure the same way the interleaved loader does: drop the transform
	// and force the consuming primitive onto a layout-agnostic instance.
	// Under NoDegradation the failure aborts the run instead.
	runTransformSeq := func(tr *graphx.Instruction) error {
		if err := r.ExecInstr(p, tr); err != nil {
			if opts.NoDegradation {
				return err
			}
			res.ElidedXformFailures++
			res.SkippedTransforms++
			forceAgnostic = true
		}
		return nil
	}
	flushPending := func() error {
		if pending == nil {
			return nil
		}
		tr := pending
		pending = nil
		return runTransformSeq(tr)
	}
	for i := range m.Instrs {
		instr := &m.Instrs[i]
		switch instr.Kind {
		case graphx.KindTransform:
			if instr.XformForNext {
				if err := flushPending(); err != nil {
					return res, err
				}
				pending = instr
				continue
			}
			if err := runTransformSeq(instr); err != nil {
				return res, err
			}

		case graphx.KindPrimitive:
			sInst, err := instr.Instance(r.Lib.Reg)
			if err != nil {
				return res, err
			}
			run := sInst
			usedSub := false
			if r.Lib.IsLoaded(sInst) {
				cache.Insert(sInst)
			} else {
				start := p.Now()
				sub, ok := cache.GetSub(p, r.Lib, sInst, &instr.Problem)
				r.Tracer.AddNamed(metrics.CatOverhead, "getsub:", instr.Name, p.Name(), start, p.Now())
				if !ok && opts.pressure() >= PressureElevated {
					// Brownout on the warm/sequential path: forced
					// cross-category reuse before a demand load, mirroring
					// the interleaved loader's pressure branch.
					if psub, pok := cache.GetSubAny(p, r.Lib, sInst, &instr.Problem); pok {
						res.PressureReuse++
						res.Substitutions = append(res.Substitutions, Substitution{
							Layer: instr.Name, Want: sInst, Got: psub, Prob: instr.Problem, Forced: true,
						})
						sub, ok = psub, true
					}
				}
				if ok {
					res.SkippedLoads++
					res.Skipped = append(res.Skipped, sInst)
					run = sub
					usedSub = true
				} else if run, usedSub, err = loadOrRecover(p, r, cache, res, opts.NoDegradation, instr.Name, sInst, &instr.Problem); err != nil {
					return res, err
				}
			}
			if pending != nil {
				_, agnostic := run.Sol.PreferredLayout(&instr.Problem)
				if usedSub && agnostic {
					res.SkippedTransforms++
					pending = nil
				} else if err := flushPending(); err != nil {
					return res, err
				}
			}
			if forceAgnostic {
				forceAgnostic = false
				sub, changed, aerr := agnosticSubstitute(p, r, cache, res, instr.Name, run, &instr.Problem)
				if aerr != nil {
					return res, aerr
				}
				run = sub
				usedSub = usedSub || changed
			}
			if err := r.ExecPrimitive(p, instr, run); err != nil {
				return res, err
			}

		default:
			if err := flushPending(); err != nil {
				return res, err
			}
			if err := r.ExecInstr(p, instr); err != nil {
				return res, err
			}
		}
	}
	if err := flushPending(); err != nil {
		return res, err
	}
	r.Sync(p)
	res.Cache = cache.Stats()
	res.CacheLen = cache.Len()
	return res, nil
}

// BackgroundLoad realizes §VI "Loading desired solutions": during the idle
// interval between requests, load previously skipped (or still absent)
// selected solutions into the cache, stopping when the budget is exhausted.
// It returns how many objects were loaded.
func BackgroundLoad(p *sim.Proc, r *graphx.Runner, cache Cache, skipped []miopen.Instance, budget time.Duration) (int, error) {
	deadline := p.Now() + budget
	loaded := 0
	for _, inst := range skipped {
		if p.Now() >= deadline {
			break
		}
		if r.Lib.IsLoaded(inst) {
			continue
		}
		if err := r.Lib.EnsureLoaded(p, inst); err != nil {
			return loaded, fmt.Errorf("core: background load %s: %w", inst.Key(), err)
		}
		cache.Insert(inst)
		loaded++
	}
	return loaded, nil
}
