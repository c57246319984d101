package backend

import (
	"slices"
	"strings"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// The conformance suite is the invariant table every Flavor must pass — the
// contract that makes a driver pluggable. The registry semantics the paper's
// runtime relies on (proactive residency, selective loading, negative
// caching of broken objects, LRU eviction under the §I code-memory pressure,
// tenant pinning, device reset) are flavor-independent: HIP and CUDA differ
// in error texts, retry posture and where per-symbol resolution cost lands,
// never in these behaviors. A new flavor joins flavors and fails the same
// table as the others (DESIGN.md §15).

// flavors lists every driver flavor; flavor-independent tests run once per
// entry.
var flavors = []Flavor{HIP, CUDA}

// forEachFlavor runs fn as one subtest per flavor, named after its driver.
func forEachFlavor(t *testing.T, fn func(t *testing.T, f Flavor)) {
	t.Helper()
	for _, f := range flavors {
		t.Run(f.Driver(), func(t *testing.T) { fn(t, f) })
	}
}

// eagerSymbols is the number of a module's n symbols whose resolution cost f
// charges inside the load: all of them, unless f defers it to first use.
func eagerSymbols(f Flavor, n int) int {
	if f.LazySymbols() {
		return 0
	}
	return n
}

// testProfile is a deliberately round-numbered device so cost assertions are
// exact: 1ms fixed load, 100MB/s load bandwidth, 100µs per symbol.
func testProfile() device.Profile {
	return device.Profile{
		Name: "test", Arch: "gfx908",
		PeakFlops: 1e12, MemBW: 1e11, PCIeBW: 1e10,
		LaunchLatency: 10 * time.Microsecond, KernelOverhead: 5 * time.Microsecond,
		ModuleLoadFixed: time.Millisecond, ModuleLoadBW: 1e8,
		SymbolResolve: 100 * time.Microsecond, ContextInit: 50 * time.Millisecond,
		CodeMemory: 1 << 30,
	}
}

// evictionProfile fits conv_a but not conv_a+conv_b: loading the second
// object must evict the first.
func evictionProfile() device.Profile {
	p := testProfile()
	p.CodeMemory = 135000
	return p
}

func testStore(t *testing.T) *codeobj.Store {
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
		if err := putBuilt(s, spec.path, "gfx908", spec.ks); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// newRuntimeOn builds a cold registry of flavor f over a fresh test store on
// a device of the given profile.
func newRuntimeOn(t *testing.T, f Flavor, prof device.Profile) (*sim.Env, *Registry) {
	t.Helper()
	env := sim.NewEnv()
	return env, New(env, device.NewGPU(env, prof), device.DefaultHost(), testStore(t), f)
}

// newTestRuntime is newRuntimeOn with the round-numbered test profile.
func newTestRuntime(t *testing.T, f Flavor) (*sim.Env, *Registry) {
	t.Helper()
	return newRuntimeOn(t, f, testProfile())
}

// runHost drives fn as the host process and fails the test on simulation
// errors.
func runHost(t *testing.T, env *sim.Env, rt *Registry, fn func(p *sim.Proc)) {
	t.Helper()
	env.Spawn("host", func(p *sim.Proc) {
		defer rt.GPU().CloseAll()
		fn(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// negCached reports whether path is in rt's negative cache.
func negCached(rt *Registry, path string) bool {
	_, ok := rt.sh.failed[path]
	return ok
}

// sortedKeys returns m's keys in order: the resident paths of sh.modules or
// the pins of a view, comparable across runs.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// harness is one fresh backend over one fresh env/store.
type harness struct {
	env   *sim.Env
	store *codeobj.Store
	rt    *Registry

	flavor Flavor
	prof   device.Profile
}

func newHarness(t *testing.T, f Flavor, prof device.Profile) *harness {
	t.Helper()
	env, rt := newRuntimeOn(t, f, prof)
	return &harness{env: env, store: rt.Store(), rt: rt, flavor: f, prof: prof}
}

// twin returns a fresh harness identical to h as it was built: same flavor,
// device profile and store contents, its own simulation.
func (h *harness) twin(t *testing.T) *harness {
	t.Helper()
	return newHarness(t, h.flavor, h.prof)
}

func (h *harness) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	runHost(t, h.env, h.rt, fn)
}

// noFaults is an inert FaultInjector. Test fakes embed it and override only
// the effect they inject.
type noFaults struct{}

func (noFaults) StoreGet(_ string, data []byte) ([]byte, error)       { return data, nil }
func (noFaults) ExtraLoadLatency(time.Duration, string) time.Duration { return 0 }
func (noFaults) ExtraLoadError(time.Duration, string) error           { return nil }
func (noFaults) LoadLatencyScale(time.Duration) float64               { return 1 }

// flakyReads fails the first n store reads of every path with a transient
// I/O error, then passes bytes through.
type flakyReads struct {
	noFaults
	n int
}

func (f *flakyReads) StoreGet(path string, data []byte) ([]byte, error) {
	if f.n > 0 {
		f.n--
		return nil, codeobj.ErrIO
	}
	return data, nil
}

// TestBackendConformance drives the full conformance table against every
// flavor. Every subtest gets a fresh simulation, device and store.
func TestBackendConformance(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, f Flavor) {
		for _, tc := range []struct {
			name string
			prof device.Profile
			fn   func(t *testing.T, h *harness)
		}{
			{"load-then-hit", testProfile(), testLoadThenHit},
			{"symbol-cost-invariant", testProfile(), testSymbolCostInvariant},
			{"transient-retry", testProfile(), testTransientRetry},
			{"retries-exhausted", testProfile(), testRetriesExhausted},
			{"negative-cache", testProfile(), testNegativeCache},
			{"evict-lru", evictionProfile(), testEvictLRU},
			{"pin-protects", evictionProfile(), testPinProtects},
			{"reset-spares-residents", testProfile(), testResetSparesResidents},
			{"coalesce-inflight", testProfile(), testCoalesceInflight},
			{"device-lost", testProfile(), testDeviceLost},
			{"reuse-matches-lookup", evictionProfile(), testReuseMatchesLookup},
		} {
			t.Run(tc.name, func(t *testing.T) {
				tc.fn(t, newHarness(t, f, tc.prof))
			})
		}
	})
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
	size := objSize(t, h.store, "conv_a.pko")
	if ts := h.rt.TenantStats(); st.ModuleLoads != 1 || ts.SharedHits != 1 || st.BytesLoaded != size {
		t.Fatalf("stats = %+v, root view %+v", st, ts)
	}
	if !h.rt.Loaded("conv_a.pko") || len(h.rt.sh.modules) != 1 {
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
		want := testProfile().LoadTime(objSize(t, h.store, "conv_a.pko"), 2)
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

// Transient store faults are retried under the flavor's policy and succeed
// without poisoning the negative cache.
func testTransientRetry(t *testing.T, h *harness) {
	h.rt.SetFaults(&flakyReads{n: 2})
	h.run(t, func(p *sim.Proc) {
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Fatalf("load did not survive transient faults: %v", err)
		}
	})
	st := h.rt.Stats()
	if st.TransientRetries != 2 || st.ModuleLoads != 1 || st.PermanentFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if negCached(h.rt, "conv_a.pko") {
		t.Fatal("transient failure must not be negatively cached")
	}
}

// A transient fault that outlasts the flavor's retries surfaces as a
// transient error, and it is not negatively cached: the next call, against
// a recovered store, loads.
func testRetriesExhausted(t *testing.T, h *harness) {
	retries := h.flavor.Retry().MaxRetries
	h.rt.SetFaults(&flakyReads{n: retries + 1})
	h.run(t, func(p *sim.Proc) {
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err == nil {
			t.Fatal("exhausted retries must surface the transient fault")
		} else if !IsTransient(err) {
			t.Fatalf("error lost its transient marker: %v", err)
		}
		if negCached(h.rt, "conv_a.pko") {
			t.Fatal("transient failure must not be negatively cached")
		}
		if _, err := h.rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Fatalf("recovered store must load: %v", err)
		}
	})
	if st := h.rt.Stats(); st.TransientRetries != retries || st.FailedLoads != 1 || st.NegativeHits != 0 || st.ModuleLoads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Permanent failures are negatively cached: the repeat call fails instantly
// without touching the store, and ClearFailures plus an in-place repair
// makes the next load succeed. The error text carries the flavor's driver
// prefix.
func testNegativeCache(t *testing.T, h *harness) {
	if err := corrupt(h.store, "conv_b.pko", 20); err != nil {
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
		if !negCached(h.rt, "conv_b.pko") {
			t.Fatal("permanent failure not negatively cached")
		}
		before := p.Now()
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); err == nil {
			t.Fatal("negative cache must keep failing")
		}
		if p.Now() != before {
			t.Errorf("negative hit charged %v", p.Now()-before)
		}
		if n := h.rt.ClearFailures(); n != 1 {
			t.Fatalf("ClearFailures dropped %d entries, want 1", n)
		}
		if err := putBuilt(h.store, "conv_b.pko", "gfx908",
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
	evicted := &evictLog{}
	h.rt.SetObserver(evicted)
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
	if len(evicted.victims) == 0 {
		t.Fatal("no evictions under pressure")
	}
}

// Tenant pins guard modules from eviction; Detach releases the pins and
// makes the module evictable again.
func testPinProtects(t *testing.T, h *harness) {
	evicted := &evictLog{}
	h.rt.SetObserver(evicted)
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
		if got := sortedKeys(ten.pinned); !slices.Equal(got, []string{"conv_a.pko", "conv_b.pko"}) {
			t.Fatalf("pins = %v, want [conv_a.pko conv_b.pko]", got)
		}
		if n := h.rt.sh.refs["conv_a.pko"]; n != 1 {
			t.Fatalf("refs(conv_a) = %d", n)
		}
		ten.Detach()
		if !ten.detached || h.rt.sh.refs["conv_a.pko"] != 0 {
			t.Fatal("Detach must release pins")
		}
		// Unpinned now: the next load may evict.
		if _, err := h.rt.ModuleLoad(p, "conv_c.pko"); err != nil {
			t.Fatal(err)
		}
	})
	if len(evicted.victims) == 0 {
		t.Fatal("detached modules must be evictable")
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
		if got := sortedKeys(h.rt.sh.modules); !slices.Equal(got, []string{"conv_a.pko"}) {
			t.Fatalf("resident paths = %v", got)
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
	if st, ts := h.rt.Stats(), h.rt.TenantStats(); st.ModuleLoads != 1 || ts.CoalescedWaits != 1 {
		t.Fatalf("stats = %+v, root view %+v", st, ts)
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
		if len(h.rt.sh.modules) != 0 || h.rt.Loaded("conv_a.pko") {
			t.Fatal("device loss must drop every module, residents included")
		}
		before := p.Now()
		_, err := h.rt.ModuleLoad(p, "conv_b.pko")
		if err == nil {
			t.Fatal("load on a lost device must fail")
		}
		if !IsDeviceLost(err) {
			t.Fatalf("error %v is not typed as device-lost", err)
		}
		if IsTransient(err) {
			t.Fatalf("device-lost error %v must not look retriable", err)
		}
		if !strings.Contains(err.Error(), h.rt.Driver()) {
			t.Errorf("error %q does not name driver %q", err, h.rt.Driver())
		}
		if p.Now() != before {
			t.Errorf("lost-device load charged %v", p.Now()-before)
		}
		if negCached(h.rt, "conv_b.pko") {
			t.Fatal("device loss must not poison the negative cache")
		}
		// ArmReset-style recovery: a reset never revives a lost device.
		h.rt.UnloadAll()
		if !h.rt.DeviceLost() {
			t.Fatal("reset must not clear the lost state")
		}
		if _, err := h.rt.ModuleLoad(p, "conv_b.pko"); !IsDeviceLost(err) {
			t.Fatalf("post-reset load on lost device = %v, want device-lost", err)
		}
		if _, err := h.rt.RegisterResident(p, "conv_c.pko"); !IsDeviceLost(err) {
			t.Fatalf("RegisterResident on lost device = %v, want device-lost", err)
		}
		h.rt.MarkDeviceLost() // idempotent
	})
	if st := h.rt.Stats(); st.FailedLoads != 2 || st.PermanentFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
