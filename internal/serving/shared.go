package serving

import (
	"pask/internal/backend"
	"pask/internal/core"
)

// GPUHost is one physical GPU hosting multiple model tenants: the shared
// kernel runtime (one module registry, one negative cache, one driver lock)
// and the per-GPU categorical solution cache every tenant's executor
// consults. Tenant instances (newInstance with a host) attach refcounted
// views instead of owning a runtime, so a code object loaded while serving
// one model is immediately resident — and reusable — for every other model
// on the device.
type GPUHost struct {
	root  *backend.Registry
	Cache *core.SharedCache
}

// NewGPUHost brings up a shared GPU host over root, the cold root view of
// the device's runtime; the caller picks its flavor (backend.HIP, or
// backend.FlavorFor to follow the device's ISA).
func NewGPUHost(root *backend.Registry) *GPUHost {
	return &GPUHost{root: root, Cache: core.NewSharedCache()}
}

// Root returns the shared runtime's root view (GPU-level stats, failures,
// residency).
func (h *GPUHost) Root() *backend.Registry { return h.root }

// Close tears down the device: every stream, including the per-tenant ones,
// is closed. Call exactly once, after all tenants finished.
func (h *GPUHost) Close() { h.root.GPU().CloseAll() }
