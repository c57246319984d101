package backend

import (
	"slices"
	"time"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// shared is the per-GPU registry state every view of a Registry aliases:
// module residency, singleflight load dedup, the negative cache, the driver
// lock and the aggregate stats.
type shared struct {
	flavor  Flavor
	store   *codeobj.Store
	modules map[string]*Module
	// loadedBytes tracks the summed container size of sh.modules, kept in
	// lockstep by addModule/removeModule so the eviction loop and residency
	// gauges read it in O(1) instead of walking the module map per load.
	loadedBytes int64
	inflight    map[string]*loadState
	failed      map[string]error // negative cache: permanent failures only
	refs        map[string]int   // path -> live tenant pins (eviction guard)
	driverLock  *sim.Resource
	ctxReady    bool
	lost        bool  // device fell off the bus; terminal
	lostErr     error // cached flavor.DeviceLostError()
	stats       Stats
	faults      FaultInjector
	obs         RegistryObserver
	peers       PeerSource
	views       []*Registry // root first, then every Attach in order
}

// addModule registers a resident module, maintaining the byte counter. A
// module it displaces counts as unloaded, so nothing bound to it is reused.
func (sh *shared) addModule(path string, m *Module) {
	if old, ok := sh.modules[path]; ok {
		old.unloaded = true
	}
	sh.modules[path] = m
	sh.loadedBytes += int64(m.Object.Size())
}

// removeModule drops a resident module, maintaining the byte counter and
// marking the module unloaded. Every way a module leaves the registry goes
// through here.
func (sh *shared) removeModule(path string) bool {
	m, ok := sh.modules[path]
	if !ok {
		return false
	}
	m.unloaded = true
	delete(sh.modules, path)
	sh.loadedBytes -= int64(m.Object.Size())
	return true
}

// observe emits an instant event to the shared observer, if any.
func (sh *shared) observe(env *sim.Env, kind, path string) {
	if sh.obs != nil {
		sh.obs.RegistryEvent(kind, path, env.Now())
	}
}

// sampleResidency emits the resident-bytes/modules gauges after any change
// to the module map. Series are named per driver ("hip_resident_bytes",
// "cuda_resident_modules", ...) so heterogeneous hosts chart per backend.
func (rt *Registry) sampleResidency() {
	if rt.sh.obs == nil {
		return
	}
	now := rt.env.Now()
	driver := rt.sh.flavor.Driver()
	rt.sh.obs.RegistrySample(driver+"_resident_bytes", now, float64(rt.LoadedCodeBytes()))
	rt.sh.obs.RegistrySample(driver+"_resident_modules", now, float64(len(rt.sh.modules)))
}

// Registry is one view of a GPU's shared module registry — the one runtime
// type every flavor (HIP, CUDA) instantiates. New returns
// the root view; Attach returns additional tenant views that pin the modules
// they reference so eviction cannot pull a live tenant's kernels out from
// under it. All views observe the same residency and negative cache; the
// OnLoad hook and the tenant attribution stats are per view.
type Registry struct {
	env  *sim.Env
	gpu  *device.GPU
	host device.HostProfile

	sh *shared

	pinned   map[string]bool // nil for the root view: no pinning
	tstats   TenantStats
	detached bool

	onLoad OnLoadFunc
}

type loadState struct {
	done *sim.Signal
	mod  *Module
	err  error
}

// New creates a cold registry of the given flavor over the device and
// code-object store and returns its root view.
func New(env *sim.Env, gpu *device.GPU, host device.HostProfile, store *codeobj.Store, flavor Flavor) *Registry {
	rt := &Registry{
		env:  env,
		gpu:  gpu,
		host: host,
		sh: &shared{
			flavor:     flavor,
			store:      store,
			modules:    make(map[string]*Module),
			inflight:   make(map[string]*loadState),
			failed:     make(map[string]error),
			refs:       make(map[string]int),
			driverLock: sim.NewResource(env, 1),
		},
	}
	rt.sh.views = []*Registry{rt}
	return rt
}

// Driver returns the flavor name.
func (rt *Registry) Driver() string { return rt.sh.flavor.Driver() }

// Env returns the simulation environment.
func (rt *Registry) Env() *sim.Env { return rt.env }

// GPU returns the device this registry loads modules onto.
func (rt *Registry) GPU() *device.GPU { return rt.gpu }

// Host returns the host-side framework cost profile.
func (rt *Registry) Host() device.HostProfile { return rt.host }

// SetOnLoad installs this view's load observer (nil removes it).
func (rt *Registry) SetOnLoad(fn OnLoadFunc) { rt.onLoad = fn }

// Attach creates a tenant view named name over this registry's shared state.
// The view sees every module already resident, coalesces its loads with
// other views' in-flight loads, and pins each module it references so
// eviction under code-memory pressure cannot drop another tenant's live
// kernels. Detach releases the pins.
func (rt *Registry) Attach(name string) *Registry {
	v := &Registry{
		env:    rt.env,
		gpu:    rt.gpu,
		host:   rt.host,
		sh:     rt.sh,
		pinned: make(map[string]bool),
	}
	v.tstats.Tenant = name
	rt.sh.views = append(rt.sh.views, v)
	return v
}

// Detach releases every module pin this view holds. Pinned modules stay
// resident (they are the warm cache the next tenant benefits from) but
// become evictable under memory pressure. Detaching never unloads a module
// another view still pins. Detach is idempotent.
func (rt *Registry) Detach() {
	if rt.detached {
		return
	}
	for path := range rt.pinned {
		if rt.sh.refs[path]--; rt.sh.refs[path] <= 0 {
			delete(rt.sh.refs, path)
		}
	}
	rt.pinned = nil
	rt.tstats.Pinned = 0
	rt.detached = true
}

// pin records that this view references path, guarding the module against
// eviction. The root view does not pin (preserving the single-tenant LRU
// behavior); tenant views pin each path once.
func (rt *Registry) pin(path string) {
	if rt.pinned == nil || rt.pinned[path] {
		return
	}
	rt.pinned[path] = true
	rt.sh.refs[path]++
	rt.tstats.Pinned++
}

// SetFaults installs (or with nil removes) the shared fault injector: every
// view's store reads and module loads go through it.
func (rt *Registry) SetFaults(f FaultInjector) { rt.sh.faults = f }

// SetObserver installs (or with nil removes) the shared registry observer.
// Like the fault injector it is registry-wide: every view's activity is
// reported to the same observer.
func (rt *Registry) SetObserver(o RegistryObserver) { rt.sh.obs = o }

// SetPeers installs (or with nil removes) the shared peer source consulted
// on load misses — the cross-GPU cache-peering seam.
func (rt *Registry) SetPeers(ps PeerSource) { rt.sh.peers = ps }

// Store returns the backing code-object store.
func (rt *Registry) Store() *codeobj.Store { return rt.sh.store }

// ReadObject returns the bytes stored under path as this registry's process
// sees them: through the fault injector when one is installed, so injected
// failures surface exactly where real storage errors would.
func (rt *Registry) ReadObject(path string) ([]byte, error) {
	data, err := rt.sh.store.Get(path)
	if err != nil || rt.sh.faults == nil {
		return data, err
	}
	return rt.sh.faults.StoreGet(path, data)
}

// Stats returns a snapshot of the shared loading statistics.
func (rt *Registry) Stats() Stats { return rt.sh.stats }

// TenantStats returns this view's attribution counters.
func (rt *Registry) TenantStats() TenantStats { return rt.tstats }

// AllTenantStats returns the attribution counters of every view: the root
// view first, then the tenant views sorted by name (detached views included
// — their history still counts). The sorted order keeps experiment output
// byte-deterministic when placement fans tenants out across GPUs in
// policy-dependent attach order.
func (rt *Registry) AllTenantStats() []TenantStats {
	out := make([]TenantStats, 0, len(rt.sh.views))
	for _, v := range rt.sh.views[1:] {
		out = append(out, v.tstats)
	}
	slices.SortStableFunc(out, func(a, b TenantStats) int {
		if a.Tenant < b.Tenant {
			return -1
		}
		if a.Tenant > b.Tenant {
			return 1
		}
		return 0
	})
	return append([]TenantStats{rt.sh.views[0].tstats}, out...)
}

// InitContext creates the GPU context, charging the device's context
// initialization cost once per shared registry. Tenants attaching to a warm
// registry skip it — the per-GPU daemon already holds the context.
func (rt *Registry) InitContext(p *sim.Proc) {
	if rt.sh.ctxReady {
		return
	}
	p.Sleep(rt.gpu.Profile.ContextInit)
	rt.sh.ctxReady = true
}

// Loaded reports whether the module at path is resident.
func (rt *Registry) Loaded(path string) bool {
	_, ok := rt.sh.modules[path]
	return ok
}

// ResidentObject returns the parsed object of a resident module — the bytes
// a peering neighbor transfers instead of re-reading the store.
func (rt *Registry) ResidentObject(path string) (*codeobj.Object, bool) {
	if m, ok := rt.sh.modules[path]; ok {
		return m.Object, true
	}
	return nil, false
}

// loadSymbolCount returns the symbol count charged at load time: lazy
// flavors defer per-symbol resolution to the first lookup of each symbol.
func (rt *Registry) loadSymbolCount(obj *codeobj.Object) int {
	if rt.sh.flavor.LazySymbols() {
		return 0
	}
	return obj.NumSymbols()
}

// newModule wraps obj as a registered module, allocating the lazy-symbol
// ledger when the flavor defers resolution.
func (rt *Registry) newModule(path string, obj *codeobj.Object, resident bool) *Module {
	m := &Module{Path: path, Object: obj, resident: resident}
	if rt.sh.flavor.LazySymbols() {
		m.resolved = make(map[string]bool)
	}
	return m
}

// ModuleLoad returns the module at path, loading it if absent. Loading reads
// the object from the store, validates it (real parse), resolves symbols and
// charges the device profile's load time. Concurrent loads of the same path
// coalesce — across views too, so two tenants requesting the same .pko pay
// exactly one load. Distinct loads serialize on the driver lock, as real
// drivers do.
//
// With a peer source installed, a miss first consults neighbor GPUs: a
// compatible resident copy whose transfer cost undercuts the local
// store-load estimate is fetched over the interconnect instead (counted in
// PeerFetches, not ModuleLoads).
//
// Transient store errors are retried under the flavor's RetryPolicy with
// doubling backoff; permanent errors (missing object, parse failure, arch mismatch)
// are negatively cached so repeat callers fail fast without re-reading a
// known-bad object.
func (rt *Registry) ModuleLoad(p *sim.Proc, path string) (*Module, error) {
	sh := rt.sh
	if sh.lost {
		// A dead device fails instantly: the driver call never reaches the
		// store, costs no virtual time, and is not negatively cached (the
		// object is fine — the device is gone).
		sh.stats.FailedLoads++
		rt.tstats.FailedLoads++
		return nil, sh.lostErr
	}
	if m, ok := sh.modules[path]; ok {
		rt.tstats.SharedHits++
		rt.pin(path)
		return m, nil
	}
	if err, ok := sh.failed[path]; ok {
		sh.stats.NegativeHits++
		rt.tstats.NegativeHits++
		sh.observe(rt.env, "negative_hit", path)
		return nil, err
	}
	if st, ok := sh.inflight[path]; ok {
		rt.tstats.CoalescedWaits++
		sh.observe(rt.env, "coalesced_wait", path)
		st.done.Wait(p)
		if st.err == nil {
			rt.pin(path)
		}
		return st.mod, st.err
	}
	st := &loadState{done: sim.NewSignal(p.Env())}
	sh.inflight[path] = st

	start := p.Now()
	var viaPeer bool
	st.mod, viaPeer, st.err = rt.loadOrPeer(p, path)
	if sh.lost && st.err == nil {
		// The device died while the load was in flight: the driver call
		// completes into a void and the caller sees the device-lost error.
		st.mod, st.err = nil, sh.lostErr
	}

	delete(sh.inflight, path)
	if st.err == nil {
		rt.evictForSpace(int64(st.mod.Object.Size()))
		sh.addModule(path, st.mod)
		if viaPeer {
			sh.stats.PeerFetches++
			sh.stats.PeerBytes += int64(st.mod.Object.Size())
			rt.tstats.PeerFetches++
			sh.observe(rt.env, "peer_fetch", path)
		} else {
			sh.stats.ModuleLoads++
			sh.stats.BytesLoaded += int64(st.mod.Object.Size())
			rt.tstats.Loads++
			rt.tstats.BytesLoaded += int64(st.mod.Object.Size())
		}
		rt.pin(path)
	} else {
		sh.stats.FailedLoads++
		rt.tstats.FailedLoads++
		if !IsTransient(st.err) && !IsDeviceLost(st.err) {
			sh.failed[path] = st.err
			sh.stats.PermanentFailures++
		}
	}
	sh.stats.LoadTimeTotal += p.Now() - start
	rt.tstats.LoadTime += p.Now() - start
	if st.err == nil {
		rt.sampleResidency()
	}
	if rt.onLoad != nil {
		rt.onLoad(path, start, p.Now(), st.err)
	}
	st.done.Fire()
	return st.mod, st.err
}

// loadOrPeer serves a registry miss: from a neighbor GPU's resident copy
// when one is offered cheaper than the local store-load estimate, otherwise
// through the retrying store path. The peer transfer pays the driver's fixed
// module registration cost plus the link cost, under the driver lock like
// any other load. A link-faulted offer (PeerModule.Err) falls back to the
// local demand load exactly once — the fallback is a plain store load, so
// it counts in ModuleLoads and never in PeerFetches.
func (rt *Registry) loadOrPeer(p *sim.Proc, path string) (*Module, bool, error) {
	if sh := rt.sh; sh.peers != nil {
		if pm, ok := sh.peers.PeerLookup(path); ok && pm.Object != nil &&
			pm.Object.Arch == rt.gpu.Profile.Arch {
			est := rt.gpu.Profile.LoadTime(int64(pm.Object.Size()), rt.loadSymbolCount(pm.Object))
			if cost := rt.gpu.Profile.ModuleLoadFixed + pm.Cost; cost < est {
				if pm.Err != nil {
					// The link is down: the miss degrades to a local demand
					// load.
					sh.stats.PeerFetchFails++
					sh.observe(rt.env, "peer_fetch_fail", path)
				} else {
					sh.driverLock.Acquire(p)
					p.Sleep(cost)
					sh.driverLock.Release()
					return rt.newModule(path, pm.Object, false), true, nil
				}
			}
		}
	}
	m, err := rt.loadWithRetry(p, path)
	return m, false, err
}

// loadWithRetry drives loadLocked through the retry policy, holding the
// driver lock only per attempt so backoff sleeps don't stall other loads.
func (rt *Registry) loadWithRetry(p *sim.Proc, path string) (m *Module, err error) {
	err = rt.retry(p, path, func() error {
		rt.sh.driverLock.Acquire(p)
		m, err = rt.loadLocked(p, path)
		rt.sh.driverLock.Release()
		return err
	})
	return m, err
}

// retry runs attempt until it succeeds, fails permanently or exhausts the
// flavor's RetryPolicy, sleeping the doubling backoff between tries.
// Every repeat counts in Stats.TransientRetries and emits a
// "transient_retry" instant.
func (rt *Registry) retry(p *sim.Proc, path string, attempt func() error) error {
	pol := rt.sh.flavor.Retry()
	backoff := pol.Backoff
	for n := 0; ; n++ {
		err := attempt()
		if err == nil || !IsTransient(err) || n >= pol.MaxRetries {
			return err
		}
		rt.sh.stats.TransientRetries++
		rt.sh.observe(rt.env, "transient_retry", path)
		p.Sleep(backoff)
		backoff *= 2
	}
}

// ClearFailures empties the shared negative cache and returns how many
// entries it dropped. Tenant replacement uses it so a fresh tenant view
// starts with the same clean slate a fresh isolated process would have.
func (rt *Registry) ClearFailures() int {
	n := len(rt.sh.failed)
	for path := range rt.sh.failed {
		delete(rt.sh.failed, path)
	}
	return n
}

// loadLocked performs the actual read + validate + relocate under the driver
// lock, charging virtual time proportional to the object size and symbols.
func (rt *Registry) loadLocked(p *sim.Proc, path string) (*Module, error) {
	data, err := rt.ReadObject(path)
	if err == nil && rt.sh.faults != nil {
		if d := rt.sh.faults.ExtraLoadLatency(p.Now(), path); d > 0 {
			p.Sleep(d)
		}
		err = rt.sh.faults.ExtraLoadError(p.Now(), path)
	}
	if err != nil {
		// A failed open still costs the fixed driver overhead.
		p.Sleep(rt.gpu.Profile.ModuleLoadFixed)
		return nil, rt.sh.flavor.LoadError(path, err)
	}
	obj, perr := rt.sh.store.Parse(path, data)
	if perr != nil {
		// The driver read and checksummed the file before rejecting it.
		p.Sleep(rt.gpu.Profile.LoadTime(int64(len(data)), 0))
		return nil, rt.sh.flavor.ParseError(path, perr)
	}
	if arch := rt.gpu.Profile.Arch; obj.Arch != arch {
		p.Sleep(rt.gpu.Profile.ModuleLoadFixed)
		return nil, rt.sh.flavor.ArchError(path, obj.Arch, arch)
	}
	load := rt.gpu.Profile.LoadTime(int64(obj.Size()), rt.loadSymbolCount(obj))
	if rt.sh.faults != nil {
		if f := rt.sh.faults.LoadLatencyScale(p.Now()); f > 1 {
			load = time.Duration(float64(load) * f)
		}
	}
	p.Sleep(load)
	return rt.newModule(path, obj, false), nil
}

// evictForSpace drops least-recently-used non-resident modules until a new
// object of the given size fits into the device's code-memory budget — the
// memory pressure that forces edge devices to re-pay cold starts (paper §I).
// Modules pinned by a live tenant view are never victims: eviction may only
// touch modules no attached tenant references. When only resident or pinned
// modules remain the budget is allowed to overshoot.
func (rt *Registry) evictForSpace(incoming int64) {
	budget := rt.gpu.Profile.CodeMemory
	if budget <= 0 {
		return
	}
	sh := rt.sh
	for sh.loadedBytes+incoming > budget {
		var victim *Module
		for _, m := range sh.modules {
			if m.resident || sh.refs[m.Path] > 0 {
				continue
			}
			if victim == nil || m.lastUsed < victim.lastUsed ||
				(m.lastUsed == victim.lastUsed && m.Path < victim.Path) {
				victim = m
			}
		}
		if victim == nil {
			return // only resident or pinned modules remain
		}
		sh.removeModule(victim.Path)
		sh.observe(rt.env, "evict", victim.Path)
	}
}

// ModuleGetFunction resolves a kernel symbol in a loaded module. Lazy
// flavors charge the deferred per-symbol resolution cost on the first
// lookup of each symbol.
func (rt *Registry) ModuleGetFunction(p *sim.Proc, m *Module, name string) (Function, error) {
	k, ok := m.Object.Symbol(name)
	if !ok {
		return Function{}, rt.sh.flavor.SymbolError(name, m.Path)
	}
	if m.resolved != nil && !m.resolved[name] {
		p.Sleep(rt.gpu.Profile.SymbolResolve)
		m.resolved[name] = true
	}
	m.lastUsed = rt.env.Now()
	return Function{Module: m, Kernel: k}, nil
}

// GetFunction loads the module at path if needed (the lazy path the reactive
// baseline hits at launch time) and resolves the symbol.
func (rt *Registry) GetFunction(p *sim.Proc, path, name string) (Function, error) {
	m, err := rt.ModuleLoad(p, path)
	if err != nil {
		return Function{}, err
	}
	return rt.ModuleGetFunction(p, m, name)
}

// Reuse charges a warm launch of fn, a function this view resolved earlier
// with GetFunction, without looking anything up. It
// returns false, and charges nothing, when fn's module has left the registry
// (or fn is the zero Function) or the device is lost; the caller then
// resolves again with GetFunction. Otherwise it applies exactly the effects
// of GetFunction's hit path: this view's SharedHit and the module's LRU
// stamp.
//
// Skipping the pin is exact because fn must come from this same view: the
// view pinned the path when it resolved fn, only Detach clears pins, and
// after Detach pin is a no-op. A lazy flavor's symbol is already marked
// resolved on the module fn is bound to, so no resolution cost is due.
func (rt *Registry) Reuse(fn Function) bool {
	m := fn.Module
	if m == nil || m.unloaded || rt.sh.lost {
		return false
	}
	rt.tstats.SharedHits++
	m.lastUsed = rt.env.Now()
	return true
}

// ReuseModule is Reuse for ModuleLoad's hit path: m must be a module this
// view got from ModuleLoad. Like that hit path it leaves the LRU stamp alone.
func (rt *Registry) ReuseModule(m *Module) bool {
	if m == nil || m.unloaded || rt.sh.lost {
		return false
	}
	rt.tstats.SharedHits++
	return true
}

// RegisterResident maps a code object that ships inside an already-open
// shared library: the bytes are parsed and the symbols registered, but only
// the cheap mapping cost is charged (no file read or relocation pass).
// Transient read errors are retried like ModuleLoad's. A tenant attaching
// after another view already mapped the object pays nothing.
func (rt *Registry) RegisterResident(p *sim.Proc, path string) (*Module, error) {
	if rt.sh.lost {
		return nil, rt.sh.lostErr
	}
	if m, ok := rt.sh.modules[path]; ok {
		rt.pin(path)
		return m, nil
	}
	var data []byte
	err := rt.retry(p, path, func() (err error) {
		data, err = rt.ReadObject(path)
		return err
	})
	if err != nil {
		return nil, rt.sh.flavor.ResidentLoadError(path, err)
	}
	obj, perr := rt.sh.store.Parse(path, data)
	if perr != nil {
		return nil, rt.sh.flavor.ResidentParseError(path, perr)
	}
	p.Sleep(rt.host.ResidentMap)
	m := rt.newModule(path, obj, true)
	rt.sh.addModule(path, m)
	rt.pin(path)
	rt.sampleResidency()
	return m, nil
}

// Unload evicts a module from the registry (edge/suspend scenarios). It
// ignores tenant pins — callers model forced device-side eviction.
func (rt *Registry) Unload(path string) bool {
	if !rt.sh.removeModule(path) {
		return false
	}
	rt.sh.observe(rt.env, "unload", path)
	rt.sampleResidency()
	return true
}

// UnloadAll evicts every non-resident module, modeling a device reset that
// keeps the process (and its mapped library binary) alive. Tenant pins
// survive the reset: they record intent, and the next ModuleLoad re-loads.
// A reset never revives a lost device — that state is terminal.
func (rt *Registry) UnloadAll() {
	for path, m := range rt.sh.modules {
		if !m.resident {
			rt.sh.removeModule(path)
		}
	}
	rt.sh.observe(rt.env, "reset", "")
	rt.sampleResidency()
}

// MarkDeviceLost drops the GPU off the bus. Every module — residents
// included, unlike an UnloadAll reset — is gone with the device memory, and
// every subsequent load on any view fails instantly with the flavor's
// device-lost error. Terminal and idempotent: no reset or recovery path
// revives a lost device; the serving layer evacuates its tenants instead.
func (rt *Registry) MarkDeviceLost() {
	sh := rt.sh
	if sh.lost {
		return
	}
	sh.lost = true
	sh.lostErr = sh.flavor.DeviceLostError()
	for path := range sh.modules {
		sh.removeModule(path)
	}
	sh.observe(rt.env, "device_lost", "")
	rt.sampleResidency()
}

// DeviceLost reports whether the device has been marked lost.
func (rt *Registry) DeviceLost() bool { return rt.sh.lost }

// Preload loads every listed module, stopping at the first error. Used to
// realize the paper's Ideal scheme (all solutions resident before timing
// starts).
func (rt *Registry) Preload(p *sim.Proc, paths []string) error {
	for _, path := range paths {
		if _, err := rt.ModuleLoad(p, path); err != nil {
			return err
		}
	}
	return nil
}

// ModuleBytes returns the container size of the resident module at path
// (0 when the module is not resident).
func (rt *Registry) ModuleBytes(path string) int64 {
	if m, ok := rt.sh.modules[path]; ok {
		return int64(m.Object.Size())
	}
	return 0
}

// LoadedCodeBytes returns the total container bytes of resident modules.
// The value is a running counter maintained on every residency change, not
// a walk of the module map.
func (rt *Registry) LoadedCodeBytes() int64 { return rt.sh.loadedBytes }
