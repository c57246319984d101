// Package conformancetest is the shared invariant suite every backend flavor
// must pass — the contract that makes a backend.Flavor pluggable.
// The registry semantics the paper's runtime relies on (proactive residency,
// selective loading, negative caching of broken objects, LRU eviction under
// the §I code-memory pressure, tenant pinning, device reset) are
// flavor-independent: hip and cuda differ in error texts, retry posture and
// where per-symbol resolution cost lands, never in these behaviors. Each
// driver package runs Run against its own constructor from a normal test, so
// a new backend (or a regression in the generic registry) fails the same
// table of checks in every flavor; see DESIGN.md §15.
//
// Paper anchor: §III-B/C registry invariants held flavor-independent across the §II-A driver stacks (DESIGN.md §15).
package conformancetest

import (
	"strings"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// Factory builds the flavored registry under test over the given simulated
// device and store — hip.NewRuntime or cuda.NewRuntime.
type Factory func(env *sim.Env, gpu *device.GPU, host device.HostProfile, store *codeobj.Store) *backend.Registry

// profile is a deliberately round-numbered device so cost assertions are
// exact: 1ms fixed load, 100MB/s load bandwidth, 100µs per symbol.
func profile() device.Profile {
	return device.Profile{
		Name: "conformance", Arch: "gfx908",
		PeakFlops: 1e12, MemBW: 1e11, PCIeBW: 1e10,
		LaunchLatency: 10 * time.Microsecond, KernelOverhead: 5 * time.Microsecond,
		ModuleLoadFixed: time.Millisecond, ModuleLoadBW: 1e8,
		SymbolResolve: 100 * time.Microsecond, ContextInit: 50 * time.Millisecond,
		CodeMemory: 1 << 30,
	}
}

func store(t *testing.T) *codeobj.Store {
	t.Helper()
	s := codeobj.NewStore()
	for _, spec := range []struct {
		path string
		ks   []codeobj.KernelSpec
	}{
		{"conv_a.pko", []codeobj.KernelSpec{
			{Name: "conv_a_main", Pattern: "Winograd", CodeSize: 100000},
			{Name: "conv_a_xform", Pattern: "Winograd", CodeSize: 20000},
		}},
		{"conv_b.pko", []codeobj.KernelSpec{
			{Name: "conv_b_main", Pattern: "GEMM", CodeSize: 50000},
		}},
		{"conv_c.pko", []codeobj.KernelSpec{
			{Name: "conv_c_main", Pattern: "Direct", CodeSize: 60000},
		}},
	} {
		if err := s.PutBuilt(spec.path, "gfx908", spec.ks); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// harness is one fresh backend over one fresh env/store, plus a runner that
// drives fn as the host process and fails the test on simulation errors.
type harness struct {
	env   *sim.Env
	store *codeobj.Store
	rt    *backend.Registry

	factory Factory
	prof    device.Profile
}

func newHarness(t *testing.T, factory Factory, prof device.Profile) *harness {
	t.Helper()
	env := sim.NewEnv()
	st := store(t)
	gpu := device.NewGPU(env, prof)
	return &harness{env: env, store: st, rt: factory(env, gpu, device.DefaultHost(), st), factory: factory, prof: prof}
}

// twin returns a fresh harness identical to h as it was built: same flavor,
// device profile and store contents, its own simulation.
func (h *harness) twin(t *testing.T) *harness {
	t.Helper()
	return newHarness(t, h.factory, h.prof)
}

func (h *harness) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	h.env.Spawn("host", func(p *sim.Proc) {
		defer h.rt.GPU().CloseAll()
		fn(p)
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// NoFaults is an inert backend.FaultInjector. Test fakes embed it and
// override only the effect they inject.
type NoFaults struct{}

func (NoFaults) StoreGet(_ string, data []byte) ([]byte, error)       { return data, nil }
func (NoFaults) ExtraLoadLatency(time.Duration, string) time.Duration { return 0 }
func (NoFaults) ExtraLoadError(time.Duration, string) error           { return nil }
func (NoFaults) LoadLatencyScale(time.Duration) float64               { return 1 }

// flakyReads fails the first n store reads of every path with a transient
// I/O error, then passes bytes through.
type flakyReads struct {
	NoFaults
	n int
}

func (f *flakyReads) StoreGet(path string, data []byte) ([]byte, error) {
	if f.n > 0 {
		f.n--
		return nil, codeobj.ErrIO
	}
	return data, nil
}

// Run drives the full conformance table against the backend the factory
// builds. Every subtest gets a fresh simulation, device and store.
func Run(t *testing.T, factory Factory) {
	for _, tc := range []struct {
		name string
		prof device.Profile
		fn   func(t *testing.T, h *harness)
	}{
		{"load-then-hit", profile(), testLoadThenHit},
		{"symbol-cost-invariant", profile(), testSymbolCostInvariant},
		{"transient-retry", profile(), testTransientRetry},
		{"retry-disable", profile(), testRetryDisable},
		{"negative-cache", profile(), testNegativeCache},
		{"evict-lru", evictionProfile(), testEvictLRU},
		{"pin-protects", evictionProfile(), testPinProtects},
		{"reset-spares-residents", profile(), testResetSparesResidents},
		{"coalesce-inflight", profile(), testCoalesceInflight},
		{"device-lost", profile(), testDeviceLost},
		{"reuse-matches-lookup", evictionProfile(), testReuseMatchesLookup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, newHarness(t, factory, tc.prof))
		})
	}
}

// evictionProfile fits conv_a but not conv_a+conv_b: loading the second
// object must evict the first.
func evictionProfile() device.Profile {
	p := profile()
	p.CodeMemory = 135000
	return p
}

// A cold load charges virtual time and counts one store load; the repeat
// call is free and counts a hit.
func testLoadThenHit(t *testing.T, h *harness) {
	h.run(t, func(p *sim.Proc) {
		start := p.Now()
		m, err := h.rt.ModuleLoad(p, "conv_a.pko")
		if err != nil {
			t.Fatal(err)
		}
		if p.Now() == start {
			t.Error("cold load charged no virtual time")
		}
		if m.Path != "conv_a.pko" || m.Object.NumSymbols() != 2 {
			t.Errorf("module = %+v", m)
		}
		again := p.Now()
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Fatal(err)
		}
		if p.Now() != again {
			t.Errorf("warm load charged %v", p.Now()-again)
		}
	})
	st := h.rt.Stats()
	size := int64(h.store.Size("conv_a.pko"))
	if st.ModuleLoads != 1 || st.LoadHits != 1 || st.BytesLoaded != size {
		t.Fatalf("stats = %+v", st)
	}
	if !h.rt.Loaded("conv_a.pko") || h.rt.NumLoaded() != 1 {
		t.Fatal("module not tracked as loaded")
	}
}

// Load plus the first resolution of every symbol costs exactly
// LoadTime(size, numSymbols) no matter where the flavor charges the symbol
// part (eager: inside the load; lazy: at first lookup). Re-resolving is free
// either way.
func testSymbolCostInvariant(t *testing.T, h *harness) {
	h.run(t, func(p *sim.Proc) {
		start := p.Now()
		m, err := h.rt.ModuleLoad(p, "conv_a.pko")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"conv_a_main", "conv_a_xform"} {
			fn, err := h.rt.ModuleGetFunction(p, m, name)
			if err != nil {
				t.Fatal(err)
			}
			if fn.Name() != name || fn.Module != m {
				t.Errorf("ModuleGetFunction(%q) = %s in %p, want it in module %p", name, fn.Name(), fn.Module, m)
			}
		}
		elapsed := p.Now() - start
		want := profile().LoadTime(int64(h.store.Size("conv_a.pko")), 2)
		if elapsed != want {
			t.Errorf("load+resolve all symbols took %v, want %v", elapsed, want)
		}
		before := p.Now()
		if _, err := h.rt.ModuleGetFunction(p, m, "conv_a_main"); err != nil {
			t.Fatal(err)
		}
		if p.Now() != before {
			t.Errorf("repeat resolution charged %v", p.Now()-before)
		}
		if fn, err := h.rt.ModuleGetFunction(p, m, "no_such_kernel"); err == nil {
			t.Error("missing symbol must fail")
		} else if fn.Module != nil || fn.Name() != "" {
			t.Errorf("failed lookup returned %+v, want the zero Function", fn)
		}
	})
}

// Transient store faults are retried under the policy and succeed without
// poisoning the negative cache.
func testTransientRetry(t *testing.T, h *harness) {
	h.rt.SetFaults(&flakyReads{n: 2})
	h.rt.SetRetry(backend.RetryPolicy{MaxRetries: 3, Backoff: 10 * time.Microsecond, MaxBackoff: time.Millisecond})
	h.run(t, func(p *sim.Proc) {
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Fatalf("load did not survive transient faults: %v", err)
		}
	})
	st := h.rt.Stats()
	if st.TransientRetries != 2 || st.ModuleLoads != 1 || st.PermanentFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if h.rt.FailedPermanently("conv_a.pko") {
		t.Fatal("transient failure must not be negatively cached")
	}
}

// MaxRetries < 0 disables retrying: the first transient fault surfaces, and
// it is still not negatively cached (a later call may succeed).
func testRetryDisable(t *testing.T, h *harness) {
	h.rt.SetFaults(&flakyReads{n: 1})
	h.rt.SetRetry(backend.RetryPolicy{MaxRetries: -1})
	h.run(t, func(p *sim.Proc) {
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err == nil {
			t.Fatal("disabled retry must surface the transient fault")
		} else if !backend.IsTransient(err) {
			t.Fatalf("error lost its transient marker: %v", err)
		}
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Fatalf("recovered store must load: %v", err)
		}
	})
	if st := h.rt.Stats(); st.TransientRetries != 0 || st.FailedLoads != 1 || st.NegativeHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Permanent failures are negatively cached: the repeat call fails instantly
// without touching the store, and ForgetFailure plus an in-place repair
// makes the next load succeed. The error text carries the flavor's driver
// prefix.
func testNegativeCache(t *testing.T, h *harness) {
	if err := h.store.Corrupt("conv_b.pko", 20); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(p *sim.Proc) {
		_, err := h.rt.ModuleLoad(p, "conv_b.pko")
		if err == nil {
			t.Fatal("corrupt object must fail to load")
		}
		if !strings.Contains(err.Error(), h.rt.Driver()) {
			t.Errorf("error %q does not name driver %q", err, h.rt.Driver())
		}
		if !h.rt.FailedPermanently("conv_b.pko") {
			t.Fatal("permanent failure not negatively cached")
		}
		before := p.Now()
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); err == nil {
			t.Fatal("negative cache must keep failing")
		}
		if p.Now() != before {
			t.Errorf("negative hit charged %v", p.Now()-before)
		}
		if !h.rt.ForgetFailure("conv_b.pko") {
			t.Fatal("ForgetFailure found nothing to forget")
		}
		if err := h.store.PutBuilt("conv_b.pko", "gfx908",
			[]codeobj.KernelSpec{{Name: "conv_b_main", Pattern: "GEMM", CodeSize: 50000}}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Fatalf("repaired object must load: %v", err)
		}
	})
	if st := h.rt.Stats(); st.PermanentFailures != 1 || st.NegativeHits != 1 || st.ModuleLoads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Under code-memory pressure the least-recently-used unpinned module is
// evicted, and reloading it pays the full cold cost again.
func testEvictLRU(t *testing.T, h *harness) {
	h.run(t, func(p *sim.Proc) {
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Fatal(err)
		}
		if h.rt.Loaded("conv_a.pko") {
			t.Fatal("conv_a should have been evicted for conv_b")
		}
		start := p.Now()
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Fatal(err)
		}
		if p.Now() == start {
			t.Error("reload after eviction must charge time")
		}
	})
	if st := h.rt.Stats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v: no evictions under pressure", st)
	}
}

// Tenant pins guard modules from eviction; PinnedPaths is sorted; Detach
// releases the pins and makes the module evictable again.
func testPinProtects(t *testing.T, h *harness) {
	ten := h.rt.Attach("t0")
	h.run(t, func(p *sim.Proc) {
		if _, err := ten.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Fatal(err)
		}
		// conv_a is pinned: conv_b must not displace it even though the
		// budget overshoots.
		if _, err := ten.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Fatal(err)
		}
		if !h.rt.Loaded("conv_a.pko") || !h.rt.Loaded("conv_b.pko") {
			t.Fatal("pinned modules must survive memory pressure")
		}
		got := ten.PinnedPaths()
		if len(got) != 2 || got[0] != "conv_a.pko" || got[1] != "conv_b.pko" {
			t.Fatalf("PinnedPaths = %v, want sorted [conv_a.pko conv_b.pko]", got)
		}
		if h.rt.Refs("conv_a.pko") != 1 {
			t.Fatalf("Refs(conv_a) = %d", h.rt.Refs("conv_a.pko"))
		}
		ten.Detach()
		if !ten.Detached() || h.rt.Refs("conv_a.pko") != 0 {
			t.Fatal("Detach must release pins")
		}
		// Unpinned now: the next load may evict.
		if _, err := h.rt.ModuleLoad(p, "conv_c.pko"); err != nil {
			t.Fatal(err)
		}
	})
	if st := h.rt.Stats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v: detached modules must be evictable", st)
	}
}

// UnloadAll models a device reset that keeps the process alive: mapped
// resident modules survive, dynamically loaded ones are dropped and reload
// on next use.
func testResetSparesResidents(t *testing.T, h *harness) {
	h.run(t, func(p *sim.Proc) {
		if _, err := h.rt.RegisterResident(p, "conv_a.pko"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Fatal(err)
		}
		h.rt.UnloadAll()
		if !h.rt.Loaded("conv_a.pko") {
			t.Fatal("resident module must survive reset")
		}
		if h.rt.Loaded("conv_b.pko") {
			t.Fatal("loaded module must be dropped by reset")
		}
		if got := h.rt.ResidentPaths(); len(got) != 1 || got[0] != "conv_a.pko" {
			t.Fatalf("ResidentPaths = %v", got)
		}
		start := p.Now()
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Fatal(err)
		}
		if p.Now() == start {
			t.Error("post-reset reload must charge time")
		}
	})
	if st := h.rt.Stats(); st.ModuleLoads != 2 {
		t.Fatalf("stats = %+v: want exactly two paid loads", st)
	}
}

// Concurrent loads of one path coalesce onto a single store read: the
// laggard waits for the in-flight load instead of paying its own.
func testCoalesceInflight(t *testing.T, h *harness) {
	var doneA, doneB time.Duration
	h.env.Spawn("loaderA", func(p *sim.Proc) {
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Error(err)
		}
		doneA = p.Now()
	})
	h.env.Spawn("loaderB", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Error(err)
		}
		doneB = p.Now()
		h.rt.GPU().CloseAll()
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	if doneA != doneB {
		t.Fatalf("coalesced loads finished at %v and %v, want same instant", doneA, doneB)
	}
	if st := h.rt.Stats(); st.ModuleLoads != 1 || st.CoalescedWaits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A lost device is terminal: everything resident (mapped residents included)
// is gone, further loads fail instantly with the flavor's typed device-lost
// error, the failure is never negatively cached, and an UnloadAll-style
// reset — the recovery that handles driver preemption — does not resurrect
// the device.
func testDeviceLost(t *testing.T, h *harness) {
	h.run(t, func(p *sim.Proc) {
		if _, err := h.rt.RegisterResident(p, "conv_a.pko"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Fatal(err)
		}
		h.rt.MarkDeviceLost()
		if !h.rt.DeviceLost() {
			t.Fatal("DeviceLost must report true after MarkDeviceLost")
		}
		if h.rt.NumLoaded() != 0 || h.rt.Loaded("conv_a.pko") {
			t.Fatal("device loss must drop every module, residents included")
		}
		before := p.Now()
		_, err := h.rt.ModuleLoad(p, "conv_b.pko")
		if err == nil {
			t.Fatal("load on a lost device must fail")
		}
		if !backend.IsDeviceLost(err) {
			t.Fatalf("error %v is not typed as device-lost", err)
		}
		if backend.IsTransient(err) {
			t.Fatalf("device-lost error %v must not look retriable", err)
		}
		if !strings.Contains(err.Error(), h.rt.Driver()) {
			t.Errorf("error %q does not name driver %q", err, h.rt.Driver())
		}
		if p.Now() != before {
			t.Errorf("lost-device load charged %v", p.Now()-before)
		}
		if h.rt.FailedPermanently("conv_b.pko") {
			t.Fatal("device loss must not poison the negative cache")
		}
		// ArmReset-style recovery: a reset never revives a lost device.
		h.rt.UnloadAll()
		if !h.rt.DeviceLost() {
			t.Fatal("reset must not clear the lost state")
		}
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); !backend.IsDeviceLost(err) {
			t.Fatalf("post-reset load on lost device = %v, want device-lost", err)
		}
		if _, err := h.rt.RegisterResident(p, "conv_c.pko"); !backend.IsDeviceLost(err) {
			t.Fatalf("RegisterResident on lost device = %v, want device-lost", err)
		}
		h.rt.MarkDeviceLost() // idempotent
	})
	if st := h.rt.Stats(); st.FailedLoads != 2 || st.PermanentFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
