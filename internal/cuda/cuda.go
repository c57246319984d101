// Package cuda is the CUDA flavor of the pluggable device backend,
// modeling the NVIDIA driver the paper's A100 (sm_80) measurements run on
// (paper §II-A — the lazy-loading cold start is common to both vendor
// stacks, Fig 3). It plugs into the generic internal/backend registry with
// the same shared-residency semantics as the HIP flavor (§III-B/C) and
// differs only where the real drivers differ:
//
//   - Lazy module loading (CUDA_MODULE_LOADING=LAZY, the default since CUDA
//     12): cuModuleLoad maps the cubin but defers per-symbol finalization,
//     so the SymbolResolve cost lands on the first cuModuleGetFunction of
//     each kernel instead of inside the load. Total cost is unchanged; its
//     placement shifts from load to first use.
//   - CUDA_ERROR_*-styled error texts, the strings the driver API returns
//     for missing images, malformed cubins, ISA mismatches and unresolved
//     symbols.
//   - A tighter default retry posture: the datacenter A100 profile assumes
//     a nearby NVMe-backed store, so fewer, faster retries than the HIP
//     flavor's patient policy.
//
// Paper anchor: §II-A lazy loading (Fig 3) on the paper's A100/sm_80 testbed.
package cuda

import (
	"fmt"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// DefaultRetryPolicy returns the CUDA flavor's retry posture: two quick
// retries with a tight backoff cap, tuned for a local NVMe store.
func DefaultRetryPolicy() backend.RetryPolicy {
	return backend.RetryPolicy{MaxRetries: 2, Backoff: 100 * time.Microsecond, MaxBackoff: 400 * time.Microsecond}
}

// Flavor is the CUDA driver surface plugged into the generic registry.
type Flavor struct{}

// Driver names the backend.
func (Flavor) Driver() string { return "cuda" }

// DefaultRetry is the policy used when SetRetry was never called.
func (Flavor) DefaultRetry() backend.RetryPolicy { return DefaultRetryPolicy() }

// LazySymbols is true: lazy module loading defers per-symbol finalization
// to the first cuModuleGetFunction of each kernel.
func (Flavor) LazySymbols() bool { return true }

// LoadError decorates a store-read failure during ModuleLoad.
func (Flavor) LoadError(path string, cause error) error {
	return fmt.Errorf("cuda: cuModuleLoad %q: CUDA_ERROR_FILE_NOT_FOUND: %w", path, cause)
}

// ParseError decorates a rejected container during ModuleLoad.
func (Flavor) ParseError(path string, cause error) error {
	return fmt.Errorf("cuda: cuModuleLoad %q: CUDA_ERROR_INVALID_IMAGE: %w", path, cause)
}

// ArchError reports an object whose ISA does not match the device.
func (Flavor) ArchError(path, objArch, devArch string) error {
	return fmt.Errorf("cuda: cuModuleLoad %q: CUDA_ERROR_NO_BINARY_FOR_GPU: object arch %q, device %q", path, objArch, devArch)
}

// SymbolError reports a kernel symbol missing from a loaded module.
func (Flavor) SymbolError(name, module string) error {
	return fmt.Errorf("cuda: cuModuleGetFunction %q in %q: CUDA_ERROR_NOT_FOUND", name, module)
}

// ResidentLoadError decorates a store-read failure during RegisterResident
// (the fatbin-registration path of statically linked kernels).
func (Flavor) ResidentLoadError(path string, cause error) error {
	return fmt.Errorf("cuda: RegisterFatBinary %q: %w", path, cause)
}

// ResidentParseError decorates a rejected container during RegisterResident.
func (Flavor) ResidentParseError(path string, cause error) error {
	return fmt.Errorf("cuda: RegisterFatBinary %q: CUDA_ERROR_INVALID_IMAGE: %w", path, cause)
}

// DeviceLostError is the CUDA rendering of a dead device: every driver call
// on a lost GPU returns CUDA_ERROR_DEVICE_LOST.
func (Flavor) DeviceLostError() error {
	return fmt.Errorf("cuda: CUDA_ERROR_DEVICE_LOST: %w", backend.ErrDeviceLost)
}

// NewRuntime creates a cold CUDA-flavored runtime over the given device and
// code-object store and returns its root view.
func NewRuntime(env *sim.Env, gpu *device.GPU, host device.HostProfile, store *codeobj.Store) *backend.Registry {
	return backend.New(env, gpu, host, store, Flavor{})
}
