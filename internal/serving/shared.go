package serving

import (
	"fmt"

	"pask/internal/backend"
	"pask/internal/core"
	"pask/internal/experiments"
)

// GPUHost is one physical GPU hosting multiple model tenants: the shared
// kernel runtime (one module registry, one negative cache, one driver lock)
// and the per-GPU categorical solution cache every tenant's executor
// consults. Instances created with NewTenantInstance attach refcounted
// views instead of owning a runtime, so a code object loaded while serving
// one model is immediately resident — and reusable — for every other model
// on the device.
type GPUHost struct {
	root  *backend.Registry
	Cache *core.SharedCache
}

// NewGPUHost brings up a shared GPU host over root, the cold root view of
// the device's runtime; the caller picks its flavor (hip.NewRuntime, or
// experiments.BackendFor to follow the device's ISA).
func NewGPUHost(root *backend.Registry) *GPUHost {
	return &GPUHost{root: root, Cache: core.NewSharedCache()}
}

// Root returns the shared runtime's root view (GPU-level stats, failures,
// residency).
func (h *GPUHost) Root() *backend.Registry { return h.root }

// Close tears down the device: every stream, including the per-tenant ones,
// is closed. Call exactly once, after all tenants finished.
func (h *GPUHost) Close() { h.root.GPU().CloseAll() }

// NewTenantInstance creates an instance for ms that attaches to the shared
// GPU host as the named tenant instead of owning a private runtime. The
// policy's fault injector, if any, installs into the *shared* runtime: load
// faults on a shared GPU hit whichever tenant triggers the load.
func NewTenantInstance(host *GPUHost, ms *experiments.ModelSetup, policy Policy, tenant string) *Instance {
	in := &Instance{
		ms: ms, pr: ms.AttachIn(host.root, tenant), policy: policy,
		host: host, tenant: tenant,
	}
	if policy.Faults != nil {
		in.pr.RT.SetLoadFaults(policy.Faults)
		policy.Faults.ArmReset(host.root.Env(), host.root.UnloadAll)
	}
	if policy.Rec != nil {
		in.pr.Record(policy.Rec)
	}
	in.startWarmup(host.root.Env())
	return in
}

// Tenant returns the instance's tenant name ("" for isolated instances).
func (in *Instance) Tenant() string { return in.tenant }

// newTenantFTServer is newFTServer for instances attached to a shared host.
func newTenantFTServer(host *GPUHost, ms *experiments.ModelSetup, policy Policy, stats *Stats, tenant string) *ftServer {
	return &ftServer{
		env: host.root.Env(), ms: ms, policy: policy, stats: stats,
		host: host, tenant: tenant,
		inst: NewTenantInstance(host, ms, policy, tenant),
	}
}

// detachTenant releases the live instance's view of the shared runtime:
// pins drop so eviction may reclaim the tenant's modules, but nothing is
// unloaded and no other tenant's stream or pinned module is touched.
func (s *ftServer) detachTenant() {
	s.inst.pr.RT.Detach()
}

// replaceTenant is crash recovery on a shared GPU: the crashed tenant's
// view detaches (its pins drop; modules other tenants reference stay put),
// the shared negative cache is cleared — a fresh isolated process starts
// with an empty one, and recovery must be able to retry loads the dead
// tenant poisoned — and a fresh view attaches under a generation-suffixed
// name. The GPU, its context and every surviving tenant remain live
// throughout; compare Instance close-and-restart in the isolated path,
// which tears down the whole device.
func (s *ftServer) replaceTenant() {
	s.detachTenant()
	s.host.Root().ClearFailures()
	s.gen++
	name := fmt.Sprintf("%s#%d", s.tenant, s.gen)
	s.inst = NewTenantInstance(s.host, s.ms, s.policy, name)
}
