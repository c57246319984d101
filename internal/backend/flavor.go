package backend

import (
	"fmt"
	"strings"
	"time"
)

// The two driver flavors of the paper's testbed: HIP for the ROCm devices
// (MI100, RX 6900 XT), CUDA for the A100. Both share the lazy-loading cold
// start (§II-A, Fig 3); they differ only in what a Flavor captures.
var (
	HIP  Flavor = hipFlavor{}
	CUDA Flavor = cudaFlavor{}
)

// FlavorFor returns the flavor whose driver runs an ISA: sm_* architectures
// get CUDA, everything else (gfx*) HIP.
func FlavorFor(arch string) Flavor {
	if strings.HasPrefix(arch, "sm_") {
		return CUDA
	}
	return HIP
}

// hipFlavor is the ROCm/HIP driver surface, the API the paper interposes
// on. It is eager: hipModuleLoad finalizes every symbol up front, so the
// per-symbol resolution cost lands inside the load. Its error texts are
// hip-prefixed (the shapes the recovery ladder and tests match on) and its
// retry posture is patient: ROCm tolerates slower distributed stores on the
// MI100-class training parks the paper profiles.
type hipFlavor struct{}

func (hipFlavor) Driver() string { return "hip" }

func (hipFlavor) Retry() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: 200 * time.Microsecond}
}

func (hipFlavor) LazySymbols() bool { return false }

func (hipFlavor) LoadError(path string, cause error) error {
	return fmt.Errorf("hip: ModuleLoad: %w", cause)
}

func (hipFlavor) ParseError(path string, cause error) error {
	return fmt.Errorf("hip: ModuleLoad %q: %w", path, cause)
}

func (hipFlavor) ArchError(path, objArch, devArch string) error {
	return fmt.Errorf("hip: ModuleLoad %q: object arch %q does not match device %q", path, objArch, devArch)
}

func (hipFlavor) SymbolError(name, module string) error {
	return fmt.Errorf("hip: symbol %q not found in module %q", name, module)
}

func (hipFlavor) ResidentLoadError(path string, cause error) error {
	return fmt.Errorf("hip: RegisterResident: %w", cause)
}

func (hipFlavor) ResidentParseError(path string, cause error) error {
	return fmt.Errorf("hip: RegisterResident %q: %w", path, cause)
}

// DeviceLostError: every driver call on a lost GPU returns
// hipErrorDeviceLost.
func (hipFlavor) DeviceLostError() error {
	return fmt.Errorf("hip: hipErrorDeviceLost: %w", ErrDeviceLost)
}

// cudaFlavor is the NVIDIA driver surface the paper's A100 (sm_80)
// measurements run on. It differs from HIP only where the real drivers do:
//
//   - Lazy module loading (CUDA_MODULE_LOADING=LAZY, the default since CUDA
//     12): cuModuleLoad maps the cubin but defers per-symbol finalization,
//     so the SymbolResolve cost lands on the first cuModuleGetFunction of
//     each kernel instead of inside the load. Total cost is unchanged; its
//     placement shifts from load to first use.
//   - CUDA_ERROR_*-styled error texts, the strings the driver API returns
//     for missing images, malformed cubins, ISA mismatches and unresolved
//     symbols. RegisterResident is the fatbin-registration path of
//     statically linked kernels.
//   - A tighter retry posture: the datacenter A100 profile assumes a nearby
//     NVMe-backed store, so fewer, faster retries than HIP's.
type cudaFlavor struct{}

func (cudaFlavor) Driver() string { return "cuda" }

func (cudaFlavor) Retry() RetryPolicy {
	return RetryPolicy{MaxRetries: 2, Backoff: 100 * time.Microsecond}
}

func (cudaFlavor) LazySymbols() bool { return true }

func (cudaFlavor) LoadError(path string, cause error) error {
	return fmt.Errorf("cuda: cuModuleLoad %q: CUDA_ERROR_FILE_NOT_FOUND: %w", path, cause)
}

func (cudaFlavor) ParseError(path string, cause error) error {
	return fmt.Errorf("cuda: cuModuleLoad %q: CUDA_ERROR_INVALID_IMAGE: %w", path, cause)
}

func (cudaFlavor) ArchError(path, objArch, devArch string) error {
	return fmt.Errorf("cuda: cuModuleLoad %q: CUDA_ERROR_NO_BINARY_FOR_GPU: object arch %q, device %q", path, objArch, devArch)
}

func (cudaFlavor) SymbolError(name, module string) error {
	return fmt.Errorf("cuda: cuModuleGetFunction %q in %q: CUDA_ERROR_NOT_FOUND", name, module)
}

func (cudaFlavor) ResidentLoadError(path string, cause error) error {
	return fmt.Errorf("cuda: RegisterFatBinary %q: %w", path, cause)
}

func (cudaFlavor) ResidentParseError(path string, cause error) error {
	return fmt.Errorf("cuda: RegisterFatBinary %q: CUDA_ERROR_INVALID_IMAGE: %w", path, cause)
}

// DeviceLostError: every driver call on a lost GPU returns
// CUDA_ERROR_DEVICE_LOST.
func (cudaFlavor) DeviceLostError() error {
	return fmt.Errorf("cuda: CUDA_ERROR_DEVICE_LOST: %w", ErrDeviceLost)
}
