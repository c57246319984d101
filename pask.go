// Package pask is the public API of the PASK reproduction: a kernel loading
// and reusing middleware that mitigates DNN inference cold start (Huang et
// al., "PASK: Cold Start Mitigation for Inference with Proactive and
// Selective Kernel Loading on GPUs", DAC 2025), together with the full
// simulated GPU serving stack it runs on.
//
// A System bundles one model compiled for one device at one batch size.
// RunScheme executes a cold start under any of the paper's evaluated
// schemes and reports timing, GPU utilization, loading activity and PASK's
// cache statistics:
//
//	sys, err := pask.NewSystem(pask.Config{Model: "res", Batch: 1})
//	...
//	base, _ := sys.RunScheme(pask.Baseline)
//	fast, _ := sys.RunScheme(pask.PaSK)
//	fmt.Printf("cold start speedup: %.2fx\n", base.Seconds()/fast.Seconds())
package pask

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/metrics"
	"pask/internal/onnx/zoo"
	"pask/internal/tensor"
	"pask/internal/trace"
	"pask/internal/warmup"
)

// Scheme selects the execution strategy for a cold start.
type Scheme string

// The evaluated schemes (paper §IV).
const (
	// Baseline is the reactive default workflow: parse everything, then
	// launch layer by layer with lazy on-demand code-object loading.
	Baseline Scheme = Scheme(core.SchemeBaseline)
	// NNV12 selects kernels in one uniform layout (no interchange kernels)
	// and pipelines loading with execution.
	NNV12 Scheme = Scheme(core.SchemeNNV12)
	// Ideal runs with every code object already resident.
	Ideal Scheme = Scheme(core.SchemeIdeal)
	// PaSK is the full design: proactive interleaved execution plus
	// selective reuse through the categorical solution cache.
	PaSK Scheme = Scheme(core.SchemePaSK)
	// PaSKI is the interleaving-only ablation.
	PaSKI Scheme = Scheme(core.SchemePaSKI)
	// PaSKR is the reuse-only ablation with the naive exhaustive cache.
	PaSKR Scheme = Scheme(core.SchemePaSKR)
)

// Schemes returns all schemes in presentation order.
func Schemes() []Scheme {
	out := make([]Scheme, 0, len(core.Schemes()))
	for _, s := range core.Schemes() {
		out = append(out, Scheme(s))
	}
	return out
}

// Config describes the system to build.
type Config struct {
	// Model is a zoo abbreviation (see Models): "alex", "vgg", "res", ...
	Model string
	// Batch is the inference batch size (default 1).
	Batch int
	// Device is a built-in profile name: "MI100" (default), "A100", "6900XT".
	Device string
	// DType is the element type: "f32" (default), "f16" or "i8".
	DType string
}

// Option configures one RunScheme call. Options are built with the With*
// constructors:
//
//	rep, err := sys.RunScheme(pask.PaSK, pask.WithBlasScope(), pask.WithTrace(f))
type Option interface {
	applyOption(*runConfig)
}

// runConfig is the resolved per-run configuration all Options write into.
type runConfig struct {
	opts       core.Options
	traceW     io.Writer
	warmupPath string
	recordPath string
}

type optionFunc func(*runConfig)

func (f optionFunc) applyOption(c *runConfig) { f(c) }

// WithBlasScope extends PASK's management to the BLAS library's GEMM kernels
// (paper §VI "Library supporting"; helps transformer models). It applies to
// PaSK and PaSK-I; the other schemes ignore it.
func WithBlasScope() Option {
	return optionFunc(func(c *runConfig) { c.opts.BlasScope = true })
}

// WithPrecisionPreference serves reduced-precision layers with resident
// full-precision kernels instead of loading low-precision specialists
// (paper §VI "More factors for kernel specialization").
func WithPrecisionPreference() Option {
	return optionFunc(func(c *runConfig) { c.opts.PrecisionPreference = true })
}

// WithTrace records the run's full timeline — per-thread spans, counters,
// registry events — and writes it to w as Chrome trace_event JSON (loadable
// in chrome://tracing and ui.perfetto.dev) when the run completes.
func WithTrace(w io.Writer) Option {
	return optionFunc(func(c *runConfig) { c.traceW = w })
}

// PressureLevel is the serving layer's overload signal, re-exported from the
// executor. Under Elevated pressure PASK forces reuse of already-resident
// generic solutions on categorical misses; under Severe it prefers residents
// even when a specialist load would otherwise be taken.
type PressureLevel = core.PressureLevel

// The pressure levels, least to most aggressive.
const (
	PressureNominal  = core.PressureNominal
	PressureElevated = core.PressureElevated
	PressureSevere   = core.PressureSevere
)

// WithPressure pins the run's overload-pressure level (brownout mode). In
// the serving stack the level moves with queue depth; pinning it here lets a
// single cold start demonstrate the same load-shedding reuse: fewer module
// loads, with the shortfall reported in Report.PressureReuse.
func WithPressure(level PressureLevel) Option {
	return optionFunc(func(c *runConfig) { c.opts.Pressure = core.StaticPressure(level) })
}

// WithWarmupProfile replays the load profile recorded at path: a prefetcher
// thread loads the manifest's code objects concurrently with process
// bring-up, so the pipeline finds them resident. A missing, corrupt or
// stale manifest never fails the run — the run degrades to a plain cold
// start and the Report's Warmup* fields say what happened.
func WithWarmupProfile(path string) Option {
	return optionFunc(func(c *runConfig) { c.warmupPath = path })
}

// WithProfileRecording captures the run's realized load profile — the code
// objects it used, in first-use order, with checksums — and writes it to
// path as a versioned JSON manifest for WithWarmupProfile to replay.
func WithProfileRecording(path string) Option {
	return optionFunc(func(c *runConfig) { c.recordPath = path })
}

// Category labels one kind of activity in a Report.Breakdown. It is the
// metrics package's category type re-exported, so the constants below and
// plain string literals both index the map.
type Category = metrics.Category

// The breakdown categories (paper Fig 1b / Fig 7).
const (
	CatParse     = metrics.CatParse     // model deserialization
	CatLoad      = metrics.CatLoad      // code-object loading
	CatLaunch    = metrics.CatLaunch    // kernel submission
	CatExec      = metrics.CatExec      // GPU computing
	CatCopy      = metrics.CatCopy      // host<->device parameter transfer
	CatOverhead  = metrics.CatOverhead  // PASK cache queries / applicability checks
	CatSync      = metrics.CatSync      // host-device synchronization
	CatTransform = metrics.CatTransform // layout interchange kernels
	CatRecovery  = metrics.CatRecovery  // fault handling
	CatOther     = metrics.CatOther
)

// Categories returns the breakdown categories in attribution-priority order.
func Categories() []Category {
	return append(metrics.DefaultPriority(), metrics.CatOther)
}

// Report summarizes one cold-start run: timing, GPU utilization (paper
// Fig 6b), loading activity, PASK's cache statistics (Fig 9), warmup replay
// accounting and the exclusive phase breakdown (Fig 1b / Fig 7). It is the
// metrics package's report re-exported; Report.Scheme holds the Scheme as
// its underlying string.
type Report = metrics.Report

// ModelInfo describes one zoo model.
type ModelInfo struct {
	Name string // torchvision-style name
	Abbr string // paper abbreviation
	Type string // workload category
}

// Models lists the twelve models of the paper's Table I.
func Models() []ModelInfo {
	var out []ModelInfo
	for _, s := range zoo.Models() {
		out = append(out, ModelInfo{Name: s.Name, Abbr: s.Abbr, Type: s.Type})
	}
	return out
}

// Devices lists the built-in device profile names.
func Devices() []string {
	var out []string
	for _, p := range device.Profiles() {
		out = append(out, p.Name)
	}
	return out
}

// System is one model compiled for one device, ready to run cold starts.
type System struct {
	cfg Config
	ms  *experiments.ModelSetup
}

// NewSystem compiles the configured model for the configured device and
// materializes every code object it can load.
// NewSystem validates the whole Config before acting on any field —
// Batch < 0 is rejected before the Batch == 0 default applies — and reports
// every invalid field at once via errors.Join.
func NewSystem(cfg Config) (*System, error) {
	var errs []error
	if cfg.Model == "" {
		errs = append(errs, fmt.Errorf("pask: Config.Model is required (one of %v)", abbrs()))
	} else if _, err := zoo.ByAbbr(cfg.Model); err != nil {
		errs = append(errs, fmt.Errorf("pask: %w", err))
	}
	if cfg.Batch < 0 {
		errs = append(errs, fmt.Errorf("pask: invalid batch %d", cfg.Batch))
	}
	if cfg.Device == "" {
		cfg.Device = "MI100"
	}
	prof, ok := device.ProfileByName(cfg.Device)
	if !ok {
		errs = append(errs, fmt.Errorf("pask: unknown device %q (one of %v)", cfg.Device, Devices()))
	}
	dt := tensor.F32
	if cfg.DType != "" {
		var err error
		dt, err = tensor.ParseDType(cfg.DType)
		if err != nil {
			errs = append(errs, fmt.Errorf("pask: %w", err))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if cfg.Batch == 0 {
		cfg.Batch = 1
	}
	ms, err := experiments.PrepareModelTyped(cfg.Model, cfg.Batch, prof, dt)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, ms: ms}, nil
}

func abbrs() []string { return experiments.AllModelAbbrs() }

// Instructions returns the compiled model's instruction count.
func (s *System) Instructions() int { return s.ms.Model.NumInstructions() }

// PrimitiveLayers returns the number of distinct primitive-library problems
// (the paper's Table I axis).
func (s *System) PrimitiveLayers() int { return s.ms.Model.DistinctPrimitiveProblems() }

// RunScheme executes one cold start under the scheme in a fresh simulated
// process and returns its report. Options configure the run:
//
//	rep, err := sys.RunScheme(pask.PaSK, pask.WithBlasScope())
func (s *System) RunScheme(scheme Scheme, opts ...Option) (*Report, error) {
	var rc runConfig
	for _, o := range opts {
		o.applyOption(&rc)
	}
	var rec *trace.Recorder
	if rc.traceW != nil {
		rec = trace.New()
	}
	var man *warmup.Manifest
	if rc.warmupPath != "" {
		// A missing or corrupt manifest is "no profile yet": the run
		// proceeds cold, matching the prefetcher's never-fail contract.
		man, _ = warmup.ReadFile(rc.warmupPath)
	}
	wr, err := s.ms.RunSchemeOn(s.ms.NewProcess(), core.Scheme(scheme), rc.opts, rec, man, rc.recordPath != "")
	if err != nil {
		return nil, err
	}
	if rc.recordPath != "" {
		if werr := warmup.WriteFile(rc.recordPath, wr.Profile); werr != nil {
			return nil, fmt.Errorf("pask: writing profile: %w", werr)
		}
	}
	if rc.traceW != nil {
		if werr := rec.WriteChrome(rc.traceW); werr != nil {
			return nil, fmt.Errorf("pask: writing trace: %w", werr)
		}
	}
	return wr.Rep, nil
}

// ColdHot measures the first-inference cold time (including process
// initialization) and the steady-state hot iteration time — the paper's
// Fig 1(a) quantities.
func (s *System) ColdHot() (cold, hot time.Duration, err error) {
	cold, hot, _, err = s.ms.RunColdHot()
	return cold, hot, err
}
