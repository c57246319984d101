// Package blas implements the GEMM library of the simulated stack — the
// hipBLAS stand-in that serves matrix multiplication for transformer models.
// It follows the same find-and-run discipline as the primitive library
// (paper Fig 3) but is a *separate* library with its own code objects, which
// is why PASK's default deployment cannot reuse kernels for GEMM-dominated
// models (paper §VI "Library supporting"). RunInstance lets the §VI
// extension bring BLAS under PASK's management: core chooses the instance
// and runs it directly.
//
// Paper anchor: §VI "Library supporting" and the Fig 3 GEMM-library seam.
package blas

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/kernels"
	"pask/internal/sim"
	"pask/internal/tensor"
)

// Problem describes one (possibly batched) GEMM: C[M,N] = A[M,K] * B[K,N].
type Problem struct {
	M, N, K        int
	Batch          int
	TransA, TransB bool
	DType          tensor.DType
}

// Valid reports whether dimensions are positive.
func (p *Problem) Valid() bool {
	return p.M > 0 && p.N > 0 && p.K > 0 && p.Batch > 0
}

// Key returns a canonical string identity for the problem, for messages
// and deduplication by name; the find memo interns problems by value.
func (p *Problem) Key() string {
	return fmt.Sprintf("gemm-m%dn%dk%d-b%d-t%v%v-%v", p.M, p.N, p.K, p.Batch, p.TransA, p.TransB, p.DType)
}

// Workload returns the arithmetic and traffic of the full batched GEMM.
func (p *Problem) Workload() kernels.Workload {
	w := kernels.GemmWorkload(p.M, p.N, p.K, p.DType)
	return kernels.Workload{Flops: w.Flops * int64(p.Batch), Bytes: w.Bytes * int64(p.Batch)}
}

// Kernel is one GEMM implementation tier.
type Kernel struct {
	ID      string
	effFn   func(p *Problem) float64
	appliFn func(dev device.Profile, p *Problem) bool
	bindFn  func(p *Problem) string
	size    int
}

// Binding returns the compile-time binding for p ("" when binding-free).
func (k *Kernel) Binding(p *Problem) string {
	if k.bindFn == nil {
		return ""
	}
	return k.bindFn(p)
}

// Applicable reports whether the kernel can run p on dev.
func (k *Kernel) Applicable(dev device.Profile, p *Problem) bool {
	return p.Valid() && k.appliFn(dev, p)
}

// Instance is a kernel at a concrete binding — the loadable unit.
// Find's ranking builds instances with newInstance, which derives the
// store path and kernel symbol once, so a warm launch formats nothing.
type Instance struct {
	Kern    *Kernel
	Binding string

	path, symbol string
}

// newInstance returns k's instance at binding.
func newInstance(k *Kernel, binding string) Instance {
	name := k.ID
	if binding != "" {
		name += "_" + binding
	}
	return Instance{Kern: k, Binding: binding, path: "blas_" + name + ".pko", symbol: name + "_main"}
}

// Path returns the code-object store path.
func (i Instance) Path() string { return i.path }

// Symbol returns the launchable kernel symbol.
func (i Instance) Symbol() string { return i.symbol }

// Applicable reports whether this instance serves p (family constraints plus
// binding identity).
func (i Instance) Applicable(dev device.Profile, p *Problem) bool {
	return i.Kern.Applicable(dev, p) && i.Kern.Binding(p) == i.Binding
}

// ObjectSpec returns the kernels compiled into the instance's code object.
func (i Instance) ObjectSpec() []codeobj.KernelSpec {
	return []codeobj.KernelSpec{{
		Name:     i.Symbol(),
		Pattern:  "BLAS",
		CodeSize: i.Kern.size,
		Meta:     map[string]string{"kernel": i.Kern.ID, "binding": i.Binding},
	}}
}

// gemmOccupancy models device fill from the output tile count.
func gemmOccupancy(p *Problem) float64 {
	items := int64(p.Batch) * int64(p.M) * int64(p.N)
	o := 0.05 + float64(items)/150000
	if o > 1 {
		return 1
	}
	return o
}

func mnBucket(v int) int {
	b := 32
	for b*2 <= v && b < 1024 {
		b *= 2
	}
	return b
}

// Kernels returns the library's GEMM ladder.
func Kernels() []*Kernel {
	return []*Kernel{
		{
			ID:      "GemmNaive",
			effFn:   func(p *Problem) float64 { return 0.08 },
			appliFn: func(dev device.Profile, p *Problem) bool { return true },
			size:    240 << 10,
		},
		{
			ID:    "GemmTiled",
			effFn: func(p *Problem) float64 { return 0.30 },
			appliFn: func(dev device.Profile, p *Problem) bool {
				return p.M >= 16 && p.N >= 16 && p.K >= 16 && !p.TransA
			},
			bindFn: func(p *Problem) string { return fmt.Sprintf("n%d_%s", mnBucket(p.N), p.DType) },
			size:   420 << 10,
		},
		{
			ID:    "GemmXdlopsTiled",
			effFn: func(p *Problem) float64 { return 0.62 },
			appliFn: func(dev device.Profile, p *Problem) bool {
				arch := dev.Arch
				hasMatrix := (len(arch) >= 4 && arch[:4] == "gfx9") || (len(arch) >= 3 && arch[:3] == "sm_")
				return hasMatrix && !p.TransA && !p.TransB && // matrix pipes need packed operands
					p.M%16 == 0 && p.N%16 == 0 && p.K%16 == 0 &&
					(p.DType == tensor.F32 || p.DType == tensor.F16)
			},
			bindFn: func(p *Problem) string {
				return fmt.Sprintf("m%dn%d_%s", mnBucket(p.M), mnBucket(p.N), p.DType)
			},
			size: 760 << 10,
		},
	}
}

// Ranked is an applicable instance with its time estimate.
type Ranked struct {
	Inst Instance
	Est  time.Duration
}

// CoreObjectPath is the shared kernel library every GEMM depends on — the
// stand-in for the vendor BLAS's bulk kernel archive whose first-touch load
// dominates transformer cold starts.
const CoreObjectPath = "blas_core.pko"

// ErrNotApplicable marks a request for an instance that cannot serve the
// problem — a programming error the degradation ladder must not absorb.
var ErrNotApplicable = errors.New("blas: instance not applicable")

const coreObjectKernels = 24

// Registry is the GEMM ladder on one device, shared by every process of a
// set-up. It interns each distinct GEMM problem with its ranking, giving
// every ranked instance a dense ID, so a problem is ranked once per set-up
// however many processes run it.
type Registry struct {
	dev     device.Profile
	kernels []*Kernel

	mu       sync.Mutex
	interned map[Problem]*Interned
	nSlots   int // ranked instances of every interned problem, the next dense ID
}

// Interned is one distinct GEMM problem of a registry: the descriptor, its
// ranking and its dense slot range. Compiled GEMM instructions hold theirs,
// so the launch path hashes no Problem.
type Interned struct {
	Problem
	reg *Registry
	// ranked is the problem's find result, shared and read-only.
	ranked []Ranked
	// first is the dense ID of ranked[0] among the ranked instances of
	// every problem the registry interned: ranked[i]'s bound function
	// lives at a Library's fns[first+i].
	first int
}

// Registry returns the registry that interned the problem.
func (p *Interned) Registry() *Registry { return p.reg }

// NewRegistry returns the GEMM ladder on dev with no problem interned yet.
func NewRegistry(dev device.Profile) *Registry {
	return &Registry{dev: dev, kernels: Kernels(), interned: make(map[Problem]*Interned)}
}

// Intern returns the registry's record for p, ranking p on first use. The
// record holds a copy of p, so callers may reuse p.
func (r *Registry) Intern(p *Problem) *Interned {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ip, ok := r.interned[*p]; ok {
		return ip
	}
	ip := &Interned{Problem: *p, reg: r, ranked: rank(r.kernels, r.dev, p), first: r.nSlots}
	r.nSlots += len(ip.ranked)
	r.interned[*p] = ip
	return ip
}

// Library is the per-process GEMM library handle.
type Library struct {
	Reg *Registry
	RT  *backend.Registry

	// fns holds the function each ranked instance was last launched
	// through (zero until its first launch), indexed by the instance's
	// dense ID: problem p's are at p.first onward.
	fns  backend.Table[backend.Function]
	core *backend.Module // the shared archive, once EnsureCore loaded it
}

// NewLibrary binds the set-up's GEMM registry to a process runtime.
func NewLibrary(reg *Registry, rt *backend.Registry) *Library {
	return &Library{Reg: reg, RT: rt}
}

// Find returns the applicable instances for p ranked fastest-first. The
// slice is the registry's own, shared by every process of the set-up:
// callers must not modify it, and may keep pointers into it.
func (l *Library) Find(p *Interned) []Ranked {
	if p.reg != l.Reg {
		panic("blas: find of a problem interned in another registry")
	}
	return p.ranked
}

// rank returns the kernels applicable to p on dev as instances ranked
// fastest-first, ties broken by path.
func rank(kernels []*Kernel, dev device.Profile, p *Problem) []Ranked {
	var out []Ranked
	occ := gemmOccupancy(p)
	for _, k := range kernels {
		if !k.Applicable(dev, p) {
			continue
		}
		eff := k.effFn(p) * occ
		if eff < 0.01 {
			eff = 0.01
		}
		out = append(out, Ranked{Inst: newInstance(k, k.Binding(p)), Est: dev.KernelTime(p.Workload(), eff)})
	}
	slices.SortFunc(out, func(a, b Ranked) int {
		if a.Est != b.Est {
			return cmp.Compare(a.Est, b.Est)
		}
		return cmp.Compare(a.Inst.Path(), b.Inst.Path())
	})
	return out
}

// Materialize requests the code objects of every instance that could serve
// the given interned problems (offline compilation), plus the shared core
// kernel archive, in the order Find ranks them. The batch's Put builds
// them.
func Materialize(b *codeobj.Batch, problems []*Interned) {
	if len(problems) == 0 {
		return
	}
	arch := problems[0].reg.dev.Arch
	if b.Need(CoreObjectPath) {
		specs := make([]codeobj.KernelSpec, coreObjectKernels)
		for i := range specs {
			specs[i] = codeobj.KernelSpec{
				Name:     fmt.Sprintf("blas_core_k%d", i),
				Pattern:  "BLAS",
				CodeSize: 256 << 10, // 24 x 256 KiB: a 6 MiB kernel archive
			}
		}
		b.Add(CoreObjectPath, arch, specs)
	}
	for _, p := range problems {
		for _, r := range p.ranked {
			if path := r.Inst.Path(); b.Need(path) {
				b.Add(path, arch, r.Inst.ObjectSpec())
			}
		}
	}
}

// Run executes p on the stream: find the best instance, lazily load its
// code object (the reactive cold-start path), and launch. When the best
// instance cannot run — typically its code object fails to load — Run
// degrades down the ranked ladder to the next applicable instance instead of
// failing the request, mirroring the primitive library's recovery ladder.
// The launch is fire-and-forget: callers that need completion synchronize
// the stream.
func (l *Library) Run(proc *sim.Proc, stream *device.Stream, p *Interned) error {
	ranked := l.Find(p)
	if len(ranked) == 0 {
		return fmt.Errorf("blas: no kernel for %s", p.Key())
	}
	err := l.launch(proc, stream, &p.Problem, &ranked[0].Inst, p.first)
	if err == nil {
		return nil
	}
	for i := 1; i < len(ranked); i++ {
		if l.launch(proc, stream, &p.Problem, &ranked[i].Inst, p.first+i) == nil {
			return nil
		}
	}
	return err
}

// EnsureCore loads the shared kernel archive if absent — charged on the
// first GEMM of a cold process (or proactively by the PASK extension).
// Once loaded, the archive's module is kept and later calls reuse it while
// it stays resident.
func (l *Library) EnsureCore(proc *sim.Proc) error {
	if l.RT.ReuseModule(l.core) {
		return nil
	}
	m, err := l.RT.ModuleLoad(proc, CoreObjectPath)
	if err != nil {
		return err
	}
	l.core = m
	return nil
}

// RunInstance executes p with a specific kernel instance (used directly by
// the PASK-for-BLAS extension), lazily loading the shared archive and the
// instance's own code object. The instance's function is resolved on every
// call.
func (l *Library) RunInstance(proc *sim.Proc, stream *device.Stream, p *Problem, inst Instance) error {
	if !inst.Applicable(l.RT.GPU().Profile, p) {
		return fmt.Errorf("%w: %s to %s", ErrNotApplicable, inst.Path(), p.Key())
	}
	return l.launch(proc, stream, p, &inst, -1)
}

// launch lazily loads the shared archive and inst's code object and
// launches inst on p through the function bound in fns[slot], resolving
// and storing it again when Reuse refuses it; a negative slot binds
// nothing. Find's ranking already proved inst applicable, so Run skips
// RunInstance's check.
func (l *Library) launch(proc *sim.Proc, stream *device.Stream, p *Problem, inst *Instance, slot int) error {
	if err := l.EnsureCore(proc); err != nil {
		return err
	}
	fn := new(backend.Function)
	if slot >= 0 {
		fn = l.fns.At(slot)
	}
	if !l.RT.Reuse(*fn) {
		f, err := l.RT.GetFunction(proc, inst.Path(), inst.Symbol())
		if err != nil {
			return err
		}
		*fn = f
	}
	eff := inst.Kern.effFn(p) * gemmOccupancy(p)
	if eff < 0.01 {
		eff = 0.01
	}
	stream.LaunchWorkload(proc, fn.Name(), p.Workload(), eff)
	return nil
}
