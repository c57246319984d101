// Package backend is the device-backend layer of the simulated stack: the
// generic per-GPU module Registry every layer above the driver holds, and the
// Flavor seam that turns it into a concrete driver. The paper's evaluation
// spans ROCm (MI100, RX 6900 XT) and CUDA (A100) devices whose drivers share
// the *lazy loading* semantics that cause DNN cold start (paper §II-A, Fig 3)
// but differ in error surfaces, retry posture and where symbol-resolution
// cost lands. Those driver-specific parts live in a Flavor; HIP and CUDA are
// the two flavors, FlavorFor picks one by ISA, and everything above — core,
// graphx, blas, miopen, warmup, serving — holds a *Registry and never names
// a driver.
//
// The registry semantics are the multi-tenant ones of §III-B/C: the unit of
// kernel residency is the GPU, not the OS process. New creates the *root
// view* of a shared module registry and Attach hands out refcounted tenant
// views over the same state; loaded modules, the in-flight load table
// (singleflight dedup) and the negative cache are shared across views. A
// PeerSource, when installed, lets a load miss be served by
// a neighbor GPU's resident copy over the host's PCIe/NUMA link model when
// that transfer is cheaper than re-reading the store — the cross-GPU cache
// peering the placement layer builds on.
//
// Paper anchor: §II-A lazy loading (Fig 3) and the §III-B/C shared-residency registry; flavor split is the DESIGN.md §15 substitution.
package backend

import (
	"errors"
	"time"

	"pask/internal/codeobj"
)

// ErrDeviceLost is the sentinel wrapped by every flavor's DeviceLostError:
// the GPU fell off the bus and the registry is terminal. Unlike transient
// store errors it is not retriable, and unlike permanent object errors it is
// not negatively cached — the object is fine, the device is gone.
var ErrDeviceLost = errors.New("device lost")

// IsDeviceLost reports whether err is (or wraps) a device-lost failure.
func IsDeviceLost(err error) bool { return errors.Is(err, ErrDeviceLost) }

// Module is a loaded code object registered in device memory.
type Module struct {
	Path   string
	Object *codeobj.Object
	// lastUsed drives LRU eviction under device code-memory pressure.
	lastUsed time.Duration
	// resident modules live inside the library binary and are never evicted.
	resident bool
	// unloaded is set once the module leaves the registry (eviction, Unload,
	// UnloadAll, device loss): a Function bound to it can no longer be
	// reused and must be resolved again.
	unloaded bool
	// resolved tracks symbols whose resolution cost has been charged, for
	// flavors that defer it to first use (CUDA lazy module loading). Nil for
	// eager flavors.
	resolved map[string]bool
}

// Function is a resolved kernel symbol inside a loaded module. It is a
// two-pointer value: resolving one allocates nothing, and callers that keep
// one bound per launch site (see Registry.Reuse) store it cheaply. Kernel
// points into the module's shared object and must not be modified.
type Function struct {
	Module *Module
	Kernel *codeobj.Kernel
}

// Name returns the kernel's global symbol name ("" for the zero Function).
func (f Function) Name() string {
	if f.Kernel == nil {
		return ""
	}
	return f.Kernel.Name
}

// Stats aggregates the shared registry's loading activity across all views.
type Stats struct {
	ModuleLoads       int           // completed store loads (cache misses)
	BytesLoaded       int64         // container bytes read and relocated
	LoadTimeTotal     time.Duration // virtual time spent inside loads
	FailedLoads       int
	TransientRetries  int // load attempts repeated after a retriable error
	PermanentFailures int // loads negatively cached (parse/arch/missing)
	NegativeHits      int // ModuleLoad calls answered from the negative cache
	PeerFetches       int // misses served by a neighbor GPU's resident copy
	PeerBytes         int64
	PeerFetchFails    int // peer transfers that failed (link fault) and fell back to a local load
}

// TenantStats attributes a shared runtime's loading activity to one view —
// the accounting multi-tenant serving reports per tenant. Loads counts the
// loads this view initiated and paid for; SharedHits the calls answered by a
// module already resident (loaded earlier, possibly by another tenant);
// CoalescedWaits the calls that blocked on another view's in-flight load of
// the same object and got the result without paying the load itself;
// PeerFetches the misses this view resolved from a neighbor GPU instead of
// the store.
type TenantStats struct {
	Tenant         string
	Loads          int
	BytesLoaded    int64
	LoadTime       time.Duration
	SharedHits     int
	CoalescedWaits int
	FailedLoads    int
	NegativeHits   int
	PeerFetches    int
	Pinned         int // modules currently pinned by this view
}

// IsTransient reports whether a load error is retriable (a store I/O
// hiccup) rather than permanent (missing object, parse failure, arch
// mismatch). Only permanent errors are negatively cached.
func IsTransient(err error) bool { return codeobj.IsTransient(err) }

// RetryPolicy bounds the transient-error retry loop inside ModuleLoad and
// RegisterResident.
type RetryPolicy struct {
	MaxRetries int           // extra attempts after the first
	Backoff    time.Duration // virtual-time sleep before the first retry; doubles per retry
}

// FaultInjector is the registry's one fault seam — the way a fault plan
// (internal/faults) reaches a process's load path. Installed per registry
// with SetFaults; a registry without one costs nothing. Times passed are the
// registry's virtual time, so injectors can gate on windows.
type FaultInjector interface {
	// StoreGet filters every store read: it may pass the bytes through,
	// return a damaged copy, or fail the read (wrapping codeobj.ErrIO for
	// transient faults). It must never modify data.
	StoreGet(path string, data []byte) ([]byte, error)
	// ExtraLoadLatency is the extra virtual time a load of path starting at
	// now spends (spikes, slow-loader brownouts).
	ExtraLoadLatency(now time.Duration, path string) time.Duration
	// ExtraLoadError is an injected read error for a load starting at now
	// (nil for none); transient errors face the normal retry machinery.
	ExtraLoadError(now time.Duration, path string) error
	// LoadLatencyScale is a multiplier (>= 1) applied to the modeled load
	// time of a load starting at now — a sick GPU loads slower, not later.
	LoadLatencyScale(now time.Duration) float64
}

// RegistryObserver receives the shared registry's notable moments — the seam
// the trace recorder implements. RegistryEvent marks instants (kind is one of
// "evict", "coalesced_wait", "negative_hit", "transient_retry", "peer_fetch",
// "peer_fetch_fail", "unload", "reset", "device_lost"); RegistrySample
// carries gauge samples
// ("<driver>_resident_bytes", "<driver>_resident_modules"). Both are called
// with the registry's virtual time.
type RegistryObserver interface {
	RegistryEvent(kind, path string, at time.Duration)
	RegistrySample(name string, at time.Duration, value float64)
}

// OnLoadFunc observes every completed module load (or peer fetch) a view
// initiated; start/end are virtual times.
type OnLoadFunc func(path string, start, end time.Duration, err error)

// PeerModule is a neighbor GPU's resident copy of a code object, offered to
// a loading registry together with the cost of moving it over the host's
// interconnect. A source aware of link health can mark the transfer doomed
// (Err): the registry then falls back to a local demand load exactly once.
type PeerModule struct {
	Object *codeobj.Object
	Cost   time.Duration // transfer time over the link model
	Err    error         // non-nil: the link is down and the transfer fails
}

// PeerSource answers residency queries against neighbor GPUs. PeerLookup
// returns the cheapest peer copy of path, if any peer of a compatible
// architecture holds it resident. The registry only takes the peer path when
// the offered cost undercuts its own store-load estimate.
type PeerSource interface {
	PeerLookup(path string) (PeerModule, bool)
}

// Flavor captures the driver-specific surface of a backend: its name, its
// error texts, its default retry posture and where per-symbol resolution
// cost lands. The generic Registry implements the shared semantics
// (residency, singleflight dedup, negative caching, LRU eviction, tenant
// pinning); a Flavor turns it into a concrete driver. HIP and CUDA are the
// implementations; a new driver is a new Flavor.
type Flavor interface {
	// Driver names the backend ("hip", "cuda"); it prefixes trace gauge
	// series and identifies the flavor in experiment output.
	Driver() string
	// Retry is the driver's transient-error retry posture.
	Retry() RetryPolicy
	// LazySymbols reports whether per-symbol resolution cost is deferred
	// from module load to the first lookup of each symbol (the CUDA
	// lazy-module-loading behavior); eager drivers charge it inside the
	// load.
	LazySymbols() bool

	// LoadError decorates a store-read failure during ModuleLoad.
	LoadError(path string, cause error) error
	// ParseError decorates a rejected container during ModuleLoad.
	ParseError(path string, cause error) error
	// ArchError reports an object whose ISA does not match the device.
	ArchError(path, objArch, devArch string) error
	// SymbolError reports a kernel symbol missing from a loaded module.
	SymbolError(name, module string) error
	// ResidentLoadError decorates a store-read failure during
	// RegisterResident; ResidentParseError a rejected container there.
	ResidentLoadError(path string, cause error) error
	ResidentParseError(path string, cause error) error
	// DeviceLostError is the driver's rendering of a dead device (wrapping
	// backend.ErrDeviceLost); every call on a lost registry returns it.
	DeviceLostError() error
}
