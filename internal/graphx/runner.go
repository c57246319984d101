package graphx

import (
	"fmt"
	"slices"
	"time"

	"pask/internal/backend"
	"pask/internal/blas"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
	"pask/internal/trace"
)

// Runner binds one process's runtime, libraries and tracer together and
// provides the building blocks every scheme's executor is made of: parse
// steps, the parameter copy, per-instruction execution and synchronization.
type Runner struct {
	RT     *backend.Registry
	Lib    *miopen.Library
	Blas   *blas.Library
	Tracer *metrics.Tracer
	Stream *device.Stream

	// Rec, when non-nil, receives the counter series and instants the span
	// tracer cannot express (queue depths, cache sizes, milestones). All
	// trace.Recorder methods are nil-safe, so executors use it unguarded,
	// except where computing a call's arguments costs work of its own.
	Rec *trace.Recorder

	// paramsResident tracks models whose weights are already on the device:
	// a warm process serving a second request does not copy them again.
	paramsResident map[string]bool

	// fns holds the function each builtin and transform instruction was last
	// launched through, indexed by the instruction's launch site, so a warm
	// launch looks no symbol up.
	fns backend.Table[backend.Function]
}

// NewRunner wires the runtime's load events and the GPU's kernel events into
// the tracer and returns a runner using the device's default stream.
func NewRunner(rt *backend.Registry, lib *miopen.Library, blasLib *blas.Library, tracer *metrics.Tracer) *Runner {
	r := &Runner{
		RT: rt, Lib: lib, Blas: blasLib, Tracer: tracer,
		Stream:         rt.GPU().DefaultStream(),
		paramsResident: make(map[string]bool),
	}
	rt.SetOnLoad(r.recordLoad)
	// The GPU carries a single kernel hook. When several tenant runners share
	// one device (multi-tenant serving), only the first attaches its tracer:
	// kernel spans are a device-level event stream, not a per-tenant one.
	if rt.GPU().OnKernel == nil {
		rt.GPU().OnKernel = func(name string, start, end time.Duration) {
			tracer.Add(metrics.CatExec, name, "gpu", start, end)
		}
	}
	return r
}

// recordLoad is the runtime's load hook: each load becomes a span on the
// loader thread. Its bytes or error attribute is for the observer alone:
// without one, a load costs its busy time and no string.
func (r *Runner) recordLoad(path string, start, end time.Duration, err error) {
	if !r.Tracer.Observed() {
		r.Tracer.Add(metrics.CatLoad, path, "loader", start, end)
		return
	}
	s := metrics.Span{Cat: metrics.CatLoad, Name: path, Thread: "loader", Start: start, End: end}
	if err == nil {
		s.Attrs = append(s.Attrs, metrics.Attr{Key: "bytes", Value: fmt.Sprint(r.RT.ModuleBytes(path))})
	} else {
		s.Attrs = append(s.Attrs, metrics.Attr{Key: "error", Value: err.Error()})
	}
	r.Tracer.AddSpan(s)
}

// OpenModel charges the cost of opening and mapping the compiled model file.
func (r *Runner) OpenModel(p *sim.Proc) {
	start := p.Now()
	p.Sleep(r.RT.Host().ModelOpen)
	r.Tracer.Add(metrics.CatParse, "model-open", p.Name(), start, p.Now())
}

// ParseOne charges the deserialization of one instruction.
func (r *Runner) ParseOne(p *sim.Proc, in *Instruction) {
	start := p.Now()
	p.Sleep(r.RT.Host().ParseInstr)
	r.Tracer.AddNamed(metrics.CatParse, "parse:", in.Name, p.Name(), start, p.Now())
}

// CopyParams transfers the model's parameters host-to-device and waits.
// Weights stay resident, so only the first request of a process pays this.
func (r *Runner) CopyParams(p *sim.Proc, m *CompiledModel) {
	if r.paramsResident[m.Name] {
		return
	}
	start := p.Now()
	r.Stream.Copy(p, "weights-h2d", m.ParamBytes).Wait(p)
	r.Tracer.Add(metrics.CatCopy, "weights-h2d", p.Name(), start, p.Now())
	r.paramsResident[m.Name] = true
}

// EvictParams marks a model's weights as no longer resident (suspend/evict
// scenarios).
func (r *Runner) EvictParams(name string) { delete(r.paramsResident, name) }

// ExecPrimitive runs a primitive instruction with the given instance (the
// statically selected one, or a substitute chosen by PASK). Kernels are
// launched asynchronously; absent code objects load lazily here. The
// statically selected instance launches through the kernel calls its
// instruction resolved once; a substitute's come from its solution's memo,
// indexed by the instruction's problem ID.
func (r *Runner) ExecPrimitive(p *sim.Proc, in *Instruction, inst miopen.Instance) error {
	st, err := in.plan(r.Lib.Reg)
	if err != nil {
		return err
	}
	calls := st.calls
	if inst != st.inst {
		calls = inst.Sol.Calls(st.prob)
	}
	return r.execPrimitive(p, in.Name, inst, calls)
}

// ExecPrimitiveAs runs a primitive problem (possibly rewritten by a PASK
// policy, e.g. the precision-preference extension) with the given instance.
func (r *Runner) ExecPrimitiveAs(p *sim.Proc, name string, prob *miopen.Interned, inst miopen.Instance) error {
	return r.execPrimitive(p, name, inst, inst.Sol.Calls(prob))
}

// execPrimitive launches inst's kernel calls and records the issue span.
func (r *Runner) execPrimitive(p *sim.Proc, name string, inst miopen.Instance, calls *miopen.Calls) error {
	start := p.Now()
	if err := r.Lib.RunSolution(p, r.Stream, inst, calls); err != nil {
		return err
	}
	r.Tracer.AddNamed(metrics.CatLaunch, "issue:", name, p.Name(), start, p.Now(),
		metrics.Attr{Key: "solution", Value: inst.Path()})
	return nil
}

// ExecInstr runs one instruction with its static plan. Launches are
// fire-and-forget; Sync waits for them.
func (r *Runner) ExecInstr(p *sim.Proc, in *Instruction) error {
	switch in.Kind {
	case KindPrimitive:
		st, err := in.plan(r.Lib.Reg)
		if err != nil {
			return err
		}
		return r.execPrimitive(p, in.Name, st.inst, st.calls)

	case KindGemm:
		start := p.Now()
		g, err := in.InternedGemm(r.Blas.Reg)
		if err != nil {
			return err
		}
		if err := r.Blas.Run(p, r.Stream, g); err != nil {
			return err
		}
		r.Tracer.AddNamed(metrics.CatLaunch, "issue:", in.Name, p.Name(), start, p.Now())
		return nil

	case KindBuiltin:
		return r.execKernel(p, in, BuiltinObjectPath)

	case KindTransform:
		return r.execKernel(p, in, in.XformPath)
	}
	return fmt.Errorf("graphx: unknown instruction kind %v", in.Kind)
}

// execKernel launches a builtin or transform instruction's single kernel
// from the code object at path, reusing the function bound on the
// instruction's previous launch while its module stays resident.
func (r *Runner) execKernel(p *sim.Proc, in *Instruction, path string) error {
	start := p.Now()
	fn := r.fns.At(in.site)
	if !r.RT.Reuse(*fn) {
		sym := "xform_main"
		if in.Kind == KindBuiltin {
			sym = "builtin_" + in.Builtin
		}
		f, err := r.RT.GetFunction(p, path, sym)
		if err != nil {
			return err
		}
		*fn = f
	}
	r.Stream.LaunchWorkload(p, fn.Name(), in.Work, in.Eff)
	r.Tracer.AddNamed(metrics.CatLaunch, "issue:", in.Name, p.Name(), start, p.Now())
	return nil
}

// Sync drains the stream and charges the host synchronization cost.
func (r *Runner) Sync(p *sim.Proc) {
	start := p.Now()
	r.Stream.Synchronize(p)
	p.Sleep(r.RT.Host().SyncOverhead)
	r.Tracer.Add(metrics.CatSync, "sync", p.Name(), start, p.Now())
}

// RunBaseline executes the reactive default workflow (paper "Baseline"):
// parse every instruction, copy parameters, then launch layer by layer with
// lazy on-demand code loading.
func (r *Runner) RunBaseline(p *sim.Proc, m *CompiledModel) error {
	p.Sleep(r.RT.Host().IterOverhead)
	r.OpenModel(p)
	for i := range m.Instrs {
		r.ParseOne(p, &m.Instrs[i])
	}
	r.CopyParams(p, m)
	for i := range m.Instrs {
		if err := r.ExecInstr(p, &m.Instrs[i]); err != nil {
			return err
		}
	}
	r.Sync(p)
	return nil
}

// RunHot executes a steady-state iteration: everything already parsed and
// loaded, only launches and GPU execution remain (the denominator of the
// paper's Fig 1a slowdowns).
func (r *Runner) RunHot(p *sim.Proc, m *CompiledModel) error {
	p.Sleep(r.RT.Host().IterOverhead)
	for i := range m.Instrs {
		if err := r.ExecInstr(p, &m.Instrs[i]); err != nil {
			return err
		}
	}
	r.Sync(p)
	return nil
}

// PreloadAll loads every code object the model's static plan references
// (realizing the paper's Ideal scheme before the timed window).
func (r *Runner) PreloadAll(p *sim.Proc, m *CompiledModel) error {
	paths, err := m.DistinctObjects(r.Lib.Reg)
	if err != nil {
		return err
	}
	if err := r.RT.Preload(p, paths); err != nil {
		return err
	}
	// BLAS objects load through their own library paths: the shared
	// archive, then the best instance of each distinct GEMM problem in
	// first-use order.
	var gemms []*blas.Interned
	for i := range m.Instrs {
		if in := &m.Instrs[i]; in.Kind == KindGemm {
			g, err := in.InternedGemm(r.Blas.Reg)
			if err != nil {
				return err
			}
			if !slices.Contains(gemms, g) {
				gemms = append(gemms, g)
			}
		}
	}
	if len(gemms) > 0 {
		if err := r.Blas.EnsureCore(p); err != nil {
			return err
		}
	}
	for _, g := range gemms {
		if ranked := r.Blas.Find(g); len(ranked) > 0 {
			if _, err := r.RT.ModuleLoad(p, ranked[0].Inst.Path()); err != nil {
				return err
			}
		}
	}
	return nil
}
