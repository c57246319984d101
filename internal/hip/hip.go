// Package hip is the ROCm/HIP flavor of the pluggable device backend — the
// analogue of the HIP driver API that the paper interposes on, and the first
// implementation extracted into the generic internal/backend registry. It
// keeps the per-GPU module registry with the *lazy loading* semantics that
// cause DNN cold start: a kernel's code object is read, validated and
// relocated only when something asks for it, and the calling process is
// charged the full load time (paper §II-A, Fig 3).
//
// HIP is an *eager* flavor: per-symbol resolution cost is charged inside the
// module load (SymbolResolve × NumSymbols), matching hipModuleLoad, which
// finalizes the whole code object up front. Since the multi-tenant refactor
// the unit of kernel residency is the GPU, not the OS process: NewRuntime
// creates the *root view* of a shared module registry and Attach hands out
// refcounted tenant views over the same state (§III-B/C). The registry
// mechanics — singleflight dedup, negative cache, retries, LRU eviction,
// tenant pinning, cache peering — live in internal/backend; this package
// contributes only the driver-specific surface: error texts shaped like HIP
// runtime errors and the default retry posture.
//
// Paper anchor: §II-A lazy loading (Fig 3) — the HIP driver API the paper interposes on.
package hip

import (
	"fmt"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// DefaultRetryPolicy returns the policy a zero-valued retry config uses.
func DefaultRetryPolicy() backend.RetryPolicy {
	return backend.RetryPolicy{MaxRetries: 3, Backoff: 200 * time.Microsecond, MaxBackoff: time.Millisecond}
}

// Flavor is the HIP driver surface plugged into the generic registry:
// hip-prefixed error strings (the shapes the recovery ladder and tests
// match on), eager symbol resolution, and a patient retry posture (ROCm
// tolerates slower distributed stores on the MI100-class training parks the
// paper profiles).
type Flavor struct{}

// Driver names the backend.
func (Flavor) Driver() string { return "hip" }

// DefaultRetry is the policy used when SetRetry was never called.
func (Flavor) DefaultRetry() backend.RetryPolicy { return DefaultRetryPolicy() }

// LazySymbols is false: hipModuleLoad finalizes every symbol up front.
func (Flavor) LazySymbols() bool { return false }

// LoadError decorates a store-read failure during ModuleLoad.
func (Flavor) LoadError(path string, cause error) error {
	return fmt.Errorf("hip: ModuleLoad: %w", cause)
}

// ParseError decorates a rejected container during ModuleLoad.
func (Flavor) ParseError(path string, cause error) error {
	return fmt.Errorf("hip: ModuleLoad %q: %w", path, cause)
}

// ArchError reports an object whose ISA does not match the device.
func (Flavor) ArchError(path, objArch, devArch string) error {
	return fmt.Errorf("hip: ModuleLoad %q: object arch %q does not match device %q", path, objArch, devArch)
}

// SymbolError reports a kernel symbol missing from a loaded module.
func (Flavor) SymbolError(name, module string) error {
	return fmt.Errorf("hip: symbol %q not found in module %q", name, module)
}

// ResidentLoadError decorates a store-read failure during RegisterResident.
func (Flavor) ResidentLoadError(path string, cause error) error {
	return fmt.Errorf("hip: RegisterResident: %w", cause)
}

// ResidentParseError decorates a rejected container during RegisterResident.
func (Flavor) ResidentParseError(path string, cause error) error {
	return fmt.Errorf("hip: RegisterResident %q: %w", path, cause)
}

// DeviceLostError is the HIP rendering of a dead device: every driver call
// on a lost GPU returns hipErrorDeviceLost.
func (Flavor) DeviceLostError() error {
	return fmt.Errorf("hip: hipErrorDeviceLost: %w", backend.ErrDeviceLost)
}

// NewRuntime creates a cold HIP-flavored runtime over the given device and
// code-object store and returns its root view.
func NewRuntime(env *sim.Env, gpu *device.GPU, host device.HostProfile, store *codeobj.Store) *backend.Registry {
	return backend.New(env, gpu, host, store, Flavor{})
}
