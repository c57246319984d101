// Package experiments reproduces every table and figure of the paper's
// evaluation (§IV–§V) plus the §VI extensions: each experiment builds the
// zoo models, runs them under the evaluated schemes on simulated devices,
// and reports the same quantities the paper plots.
//
// Paper anchor: the §IV–§V evaluation (Figs 1, 6–9, Tables I–II) plus the §VI extensions.
package experiments

import (
	"fmt"
	"time"

	"pask/internal/backend"
	"pask/internal/blas"
	"pask/internal/codeobj"
	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/faults"
	"pask/internal/graphx"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/onnx/zoo"
	"pask/internal/sim"
	"pask/internal/tensor"
	"pask/internal/trace"
)

// ModelSetup bundles one model compiled for one device and batch size,
// together with the shared code-object store all cold processes read from.
type ModelSetup struct {
	Spec    zoo.Spec
	Batch   int
	Profile device.Profile
	Reg     *miopen.Registry
	BlasReg *blas.Registry // the GEMM ladder, with the models' GEMMs ranked
	Store   *codeobj.Store
	Model   *graphx.CompiledModel // default (vendor) selection plan
	Uniform *graphx.CompiledModel // layout-uniform plan (NNV12 selection)
}

// PrepareModel compiles a zoo model for a device at a batch size and
// materializes every code object either plan can load, in one batch.
func PrepareModel(abbr string, batch int, prof device.Profile) (*ModelSetup, error) {
	return PrepareModelTyped(abbr, batch, prof, tensor.F32)
}

// PrepareModelsShared compiles several models against ONE registry and ONE
// code-object store, so processes hosting more than one model share loaded
// kernels — the setting where PASK recycles kernels across models. Every
// model's code objects are built in one batch.
func PrepareModelsShared(abbrs []string, batch int, prof device.Profile) (map[string]*ModelSetup, error) {
	reg := miopen.NewRegistry(miopen.NewCtx(prof))
	db := miopen.NewPerfDB(reg)
	breg := blas.NewRegistry(prof)
	store := codeobj.NewStore()
	objs := store.Batch()
	out := make(map[string]*ModelSetup, len(abbrs))
	for _, abbr := range abbrs {
		spec, err := zoo.ByAbbr(abbr)
		if err != nil {
			return nil, err
		}
		m, err := compileModel(objs, db, breg, spec, batch, tensor.F32, graphx.CompileOptions{})
		if err != nil {
			return nil, err
		}
		out[abbr] = &ModelSetup{
			Spec: spec, Batch: batch, Profile: prof,
			Reg: reg, BlasReg: breg, Store: store, Model: m, Uniform: m,
		}
	}
	if err := objs.Put(); err != nil {
		return nil, fmt.Errorf("experiments: materialize %v: %w", abbrs, err)
	}
	return out, nil
}

// PrepareModelTyped is PrepareModel with an explicit element type (quantized
// deployments compile the same architecture at fp16).
func PrepareModelTyped(abbr string, batch int, prof device.Profile, dt tensor.DType) (*ModelSetup, error) {
	spec, err := zoo.ByAbbr(abbr)
	if err != nil {
		return nil, err
	}
	reg := miopen.NewRegistry(miopen.NewCtx(prof))
	db := miopen.NewPerfDB(reg)
	breg := blas.NewRegistry(prof)
	store := codeobj.NewStore()
	objs := store.Batch()
	m, err := compileModel(objs, db, breg, spec, batch, dt, graphx.CompileOptions{})
	if err != nil {
		return nil, err
	}
	uniform, err := compileModel(objs, db, breg, spec, batch, dt, graphx.CompileOptions{Mode: graphx.SelectUniformLayout})
	if err != nil {
		return nil, err
	}
	if err := objs.Put(); err != nil {
		return nil, fmt.Errorf("experiments: materialize %s: %w", abbr, err)
	}
	return &ModelSetup{Spec: spec, Batch: batch, Profile: prof, Reg: reg, BlasReg: breg, Store: store, Model: m, Uniform: uniform}, nil
}

// compileModel builds spec's graph at batch in element type dt, compiles it
// against db under opts and adds every code object the plan can load to
// objs: the one compile step of every set-up.
func compileModel(objs *codeobj.Batch, db *miopen.PerfDB, breg *blas.Registry, spec zoo.Spec, batch int, dt tensor.DType, opts graphx.CompileOptions) (*graphx.CompiledModel, error) {
	g, err := spec.Build(batch)
	if err != nil {
		return nil, err
	}
	g.DType = dt
	m, err := graphx.Compile(g, db, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: compile %s: %w", spec.Abbr, err)
	}
	return m, graphx.MaterializeModel(objs, db.Registry(), breg, m)
}

// Process is one cold OS process over the setup's shared object store: its
// own simulation environment and device, and the runner that owns its
// runtime, libraries and span tracer.
type Process struct {
	Env *sim.Env
	GPU *device.GPU
	*graphx.Runner
}

// Record attaches rec to every observability seam of this process: the span
// tracer (so all spans stream into the recorder's tracks), the runtime's
// registry observer (evictions, coalesced waits, resident-bytes gauges), the
// runner's counter hook (queue depths, cache size) and the environment's
// dispatch hook (the "sim_event_queue" series). Passing nil detaches the
// runner/tracer hooks and turns recording off.
func (pr *Process) Record(rec *trace.Recorder) {
	pr.Rec = rec
	if rec == nil {
		pr.Tracer.SetObserver(nil)
		pr.RT.SetObserver(nil)
		pr.Env.OnDispatch = nil
		return
	}
	pr.Tracer.SetObserver(rec)
	pr.RT.SetObserver(rec)
	pr.Env.OnDispatch = func(at time.Duration, proc string, queueLen int) {
		rec.Count("sim_event_queue", at, float64(queueLen))
	}
}

// InjectFaults wires a fault plan into this process alone: the objects that
// ship inside the engine and library binaries (builtin elementwise kernels,
// the BLAS core archive, the resident generics) are exempted, since damaging
// them would model a broken install rather than a loading fault; the runtime
// registry reads and loads through inj; the library's find path loses the
// plan's disabled solutions; and the plan's device reset is armed against the
// runtime. A nil inj leaves the process untouched.
func (pr *Process) InjectFaults(inj *faults.Injector) {
	if inj == nil {
		return
	}
	lib := pr.Lib
	inj.Exempt(graphx.BuiltinObjectPath, blas.CoreObjectPath)
	for _, inst := range lib.Reg.Residents() {
		inj.Exempt(inst.Path())
	}
	ids := make([]string, 0, len(lib.Reg.Solutions()))
	for _, s := range lib.Reg.Solutions() {
		ids = append(ids, s.ID())
	}
	lib.Disable(inj.DisabledIDs(ids)...)
	pr.RT.SetFaults(inj)
	inj.ArmReset(pr.Env, pr.RT.UnloadAll)
}

// Init brings the process up: GPU context creation, then the library open
// that maps its resident kernels.
func (pr *Process) Init(p *sim.Proc) error {
	pr.RT.InitContext(p)
	return pr.Lib.LoadResidents(p)
}

// Main runs fn as the process's "main" thread after bring-up (Init), closes
// every stream of the device when it returns, and drives the environment to
// completion. It returns the first error: the environment's, else
// bring-up's or fn's.
func (pr *Process) Main(fn func(*sim.Proc) error) error {
	var runErr error
	pr.Env.Spawn("main", func(p *sim.Proc) {
		defer pr.GPU.CloseAll()
		if runErr = pr.Init(p); runErr == nil {
			runErr = fn(p)
		}
	})
	if err := pr.Env.Run(); err != nil {
		return err
	}
	return runErr
}

// SchemeModel returns the plan scheme executes: NNV12's layout-uniform
// selection, the default plan otherwise. Under Ideal it first makes every
// object of the plan resident on pr, the untimed preload that precedes
// Ideal's measured run.
func (ms *ModelSetup) SchemeModel(p *sim.Proc, pr *Process, scheme core.Scheme) (*graphx.CompiledModel, error) {
	switch scheme {
	case core.SchemeNNV12:
		return ms.Uniform, nil
	case core.SchemeIdeal:
		return ms.Model, pr.Runner.PreloadAll(p, ms.Model)
	}
	return ms.Model, nil
}

// NewProcess creates a fresh cold process with its own environment. It is a
// single-run process, so its tracer keeps the per-category busy time that
// RunSchemeOn's and RunColdHot's breakdowns read: the zero Tracer replaces
// the forwarding one in place, where the runner's hooks already point.
func (ms *ModelSetup) NewProcess() *Process {
	pr := ms.NewProcessIn(sim.NewEnv())
	*pr.Tracer = metrics.Tracer{}
	return pr
}

// NewProcessIn creates a fresh cold process inside an existing environment
// (multi-instance serving scenarios share one virtual clock). Its tracer
// keeps no busy time: spans reach only the recorder Record attaches.
func (ms *ModelSetup) NewProcessIn(env *sim.Env) *Process {
	gpu := device.NewGPU(env, ms.Profile)
	rt := backend.New(env, gpu, device.DefaultHost(), ms.Store, backend.HIP)
	tracer := metrics.NewForwardingTracer()
	runner := graphx.NewRunner(rt, miopen.NewLibrary(ms.Reg, rt), blas.NewLibrary(ms.BlasReg, rt), tracer)
	return &Process{Env: env, GPU: gpu, Runner: runner}
}

// AttachIn creates a tenant process for this model on a shared GPU: a
// refcounted view of root, the GPU's shared runtime, plus a private stream
// (device streams are single-producer, so tenants must not share one). This
// is the multi-tenant counterpart of NewProcessIn: instead of every instance
// owning a device and runtime, all tenants share one device, one module
// registry and one code-object store, so residency — and therefore
// cold-start cost — is a per-GPU property. The model's setup must have been
// prepared against root's store (PrepareModelsShared); attaching a foreign
// store would desynchronize module residency from object bytes. Like
// NewProcessIn's, the tenant's tracer keeps no busy time.
func (ms *ModelSetup) AttachIn(root *backend.Registry, name string) *Process {
	if ms.Store != root.Store() {
		panic("experiments: AttachIn requires the setup and runtime to share one code-object store (use PrepareModelsShared)")
	}
	rt := root.Attach(name)
	tracer := metrics.NewForwardingTracer()
	runner := graphx.NewRunner(rt, miopen.NewLibrary(ms.Reg, rt), blas.NewLibrary(ms.BlasReg, rt), tracer)
	runner.Stream = root.GPU().NewStream()
	return &Process{Env: root.Env(), GPU: root.GPU(), Runner: runner}
}

// RunScheme executes the model once under the given scheme in a fresh cold
// process and reports the timed window. Process initialization (GPU context,
// library open with its resident kernels, and for Ideal the preloading) is
// excluded from the window, matching the paper's §V methodology where all
// schemes share the serving framework's startup. It is RunSchemeOn with no
// recorder, no manifest and no recording.
func (ms *ModelSetup) RunScheme(scheme core.Scheme, opts core.Options) (*metrics.Report, *core.Result, error) {
	wr, err := ms.RunSchemeOn(ms.NewProcess(), scheme, opts, nil, nil, false)
	if err != nil {
		return nil, nil, err
	}
	return wr.Rep, wr.Res, nil
}

// RunColdHot measures the paper's Fig 1 quantities on one device: the cold
// time of the *first* inference of a fresh process (including GPU context
// creation and library open, the full start-from-scratch path), the hot
// time of a steady-state iteration in the same process, and the breakdown
// of [0, cold] (Fig 1b).
func (ms *ModelSetup) RunColdHot() (cold, hot time.Duration, bd map[metrics.Category]time.Duration, err error) {
	pr := ms.NewProcess()
	err = pr.Main(func(p *sim.Proc) error {
		if err := pr.Runner.RunBaseline(p, ms.Model); err != nil {
			return err
		}
		// The fresh process started at t=0, so the cold time includes the
		// context creation and library open Main ran first.
		cold = p.Now()
		// Steady state: average over a few successive iterations.
		const iters = 3
		t1 := p.Now()
		for i := 0; i < iters; i++ {
			if err := pr.Runner.RunHot(p, ms.Model); err != nil {
				return err
			}
		}
		hot = (p.Now() - t1) / iters
		return nil
	})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("experiments: cold/hot %s on %s: %w", ms.Spec.Abbr, ms.Profile.Name, err)
	}
	return cold, hot, pr.Tracer.Breakdown(0, cold, metrics.DefaultPriority()), nil
}

// AllModelAbbrs returns the zoo's model abbreviations in Table I order.
func AllModelAbbrs() []string {
	var out []string
	for _, s := range zoo.Models() {
		out = append(out, s.Abbr)
	}
	return out
}

// ConvModelAbbrs returns the nine convolution-dominated models (the paper
// omits the transformers from the cache statistics, Fig 9).
func ConvModelAbbrs() []string {
	return []string{"alex", "vgg", "res", "reg", "eff", "rcnn", "ssd", "fcn", "unet"}
}

// TransformerAbbrs returns the three vision-transformer models.
func TransformerAbbrs() []string { return []string{"vit", "swin", "swin2"} }
