package serving

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pask/internal/blas"
	"pask/internal/codeobj"
	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/graphx"
	"pask/internal/sim"
	"pask/internal/trace"
	"pask/internal/warmup"
)

var (
	resOnce sync.Once
	resMS   *experiments.ModelSetup
	resErr  error
)

// resSetup builds the shared ResNet34 setup once: fault plans are wired into
// each run's own processes and never mutate the setup, so sharing is safe.
func resSetup(t *testing.T) *experiments.ModelSetup {
	t.Helper()
	resOnce.Do(func() {
		resMS, resErr = experiments.PrepareModel("res", 1, device.MI100())
	})
	if resErr != nil {
		t.Fatal(resErr)
	}
	return resMS
}

// protectedPaths lists the objects Process.InjectFaults exempts from a fault
// plan: the ones that ship inside the engine and library binaries.
func protectedPaths(ms *experiments.ModelSetup) []string {
	paths := []string{graphx.BuiltinObjectPath, blas.CoreObjectPath}
	for _, inst := range ms.Reg.Residents() {
		paths = append(paths, inst.Path())
	}
	return paths
}

// probeLoadedChosen runs one clean cold PASK request and returns the
// statically chosen, non-protected primitive objects that run actually
// loaded. Only corrupting one of these can force the degradation ladder —
// objects absorbed by ordinary selective reuse are never read at all.
func probeLoadedChosen(t *testing.T, ms *experiments.ModelSetup) []string {
	t.Helper()
	protected := make(map[string]bool)
	for _, p := range protectedPaths(ms) {
		protected[p] = true
	}
	chosen := make(map[string]bool)
	for i := range ms.Model.Instrs {
		in := &ms.Model.Instrs[i]
		if in.Kind != graphx.KindPrimitive {
			continue
		}
		inst, err := in.Instance(ms.Reg)
		if err != nil {
			t.Fatal(err)
		}
		if p := inst.Path(); !protected[p] {
			chosen[p] = true
		}
	}
	env := sim.NewEnv()
	inst := newInstance(env, nil, ms, Policy{Scheme: core.SchemePaSK}, &Stats{}, "")
	var loaded []string
	env.Spawn("probe", func(p *sim.Proc) {
		defer inst.pr.GPU.CloseAll()
		if _, err := inst.Serve(p); err != nil {
			t.Error(err)
			return
		}
		for path := range chosen {
			if inst.pr.RT.Loaded(path) {
				loaded = append(loaded, path)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(loaded) == 0 {
		t.Fatal("clean cold run loaded no chosen objects")
	}
	sort.Strings(loaded)
	return loaded
}

// findHostileSeed returns a seed whose permanent-corruption roll damages at
// least one chosen primitive object that a clean cold run really loads — so
// both fail-fast and resilient policies must face the fault — while leaving
// BLAS objects alone (their single-kernel ladders make some problems
// unrecoverable by construction, which is not what this sweep measures).
func findHostileSeed(t *testing.T, ms *experiments.ModelSetup, plan faults.Plan) int64 {
	t.Helper()
	loaded := probeLoadedChosen(t, ms)
	// With transient faults off, a read of a permanently corrupt path
	// returns a damaged copy, and a read of any other the stored bytes.
	probe := plan
	probe.TransientRate = 0
	for seed := int64(1); seed < 500; seed++ {
		probe.Seed = seed
		inj := faults.New(probe)
		inj.Exempt(protectedPaths(ms)...)
		corrupt := func(path string) bool {
			data, err := ms.Store.Get(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := inj.StoreGet(path, data)
			return err == nil && !bytes.Equal(got, data)
		}
		hit, blasHit := false, false
		for _, p := range loaded {
			if corrupt(p) {
				hit = true
			}
		}
		for _, p := range ms.Store.Paths() {
			if strings.HasPrefix(p, "blas_") && corrupt(p) {
				blasHit = true
			}
		}
		if hit && !blasHit {
			return seed
		}
	}
	t.Fatal("no hostile seed found in 500 tries")
	return 0
}

// storeDigest hashes every object in the store — fault injection must never
// mutate the shared "disk" copies.
func storeDigest(t *testing.T, store *codeobj.Store) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, path := range store.Paths() {
		data, err := store.Get(path)
		if err != nil {
			t.Fatalf("digest %s: %v", path, err)
		}
		fmt.Fprintf(h, "%s|%d|", path, len(data))
		h.Write(data)
	}
	return h.Sum64()
}

// TestChaosAcceptanceResNet is the PR's acceptance criterion: with 10%
// transient and 2% permanent fault rates on ResNet34, resilient PASK serves
// at least 99% of the trace while the fail-fast baseline aborts.
func TestChaosAcceptanceResNet(t *testing.T) {
	ms := resSetup(t)
	plan := faults.Plan{TransientRate: 0.1, PermanentRate: 0.02}
	plan.Seed = findHostileSeed(t, ms, plan)
	const n = 100
	trace := PoissonTrace(n, 2*time.Millisecond, 11)

	ff := Policy{Scheme: core.SchemeBaseline, Faults: faults.New(plan)}
	if _, err := ServeTrace(ms, ff, trace, 10); err == nil {
		t.Fatal("fail-fast baseline survived a permanently corrupt chosen object")
	}

	res := Policy{
		Scheme: core.SchemePaSK,
		FT:     FaultTolerance{MaxRetries: 2, ContinueOnError: true},
		Faults: faults.New(plan),
	}
	stats, err := ServeTrace(ms, res, trace, 10)
	if err != nil {
		t.Fatalf("resilient trace aborted: %v", err)
	}
	if served := len(stats.Latencies); served < 99 {
		t.Fatalf("resilient PASK served %d/%d; failures: %v", served, n, stats.FailedRequests)
	}
	if stats.DegradedLayers == 0 {
		t.Fatal("a corrupt chosen object must force at least one degraded layer")
	}
}

// TestFaultedServingNeverSilentlyFails is the property test: under any
// seeded fault plan every request either completes or is recorded with a
// typed error — the env never deadlocks or panics, accounting always adds
// up, and the shared store is bit-identical afterwards (injected corruption
// must stay confined to the read path). Numeric preservation under forced
// substitution is proven separately by graphx's functional-equivalence
// tests plus the applicability assertions in core's recovery tests.
func TestFaultedServingNeverSilentlyFails(t *testing.T) {
	ms := resSetup(t)
	snap := storeDigest(t, ms.Store)
	for _, seed := range []int64{1, 2, 3} {
		plan := faults.Plan{Seed: seed, TransientRate: 0.2, PermanentRate: 0.05, SpikeRate: 0.05}
		pol := Policy{
			Scheme: core.SchemePaSK,
			FT:     FaultTolerance{MaxRetries: 1, ContinueOnError: true},
			Faults: faults.New(plan),
		}
		const n = 30
		stats, err := ServeTrace(ms, pol, PoissonTrace(n, 2*time.Millisecond, seed), 7)
		if err != nil {
			t.Fatalf("seed %d: trace aborted: %v", seed, err)
		}
		if got := len(stats.Latencies) + stats.Failed; got != n {
			t.Fatalf("seed %d: %d served + %d failed != %d requests", seed, len(stats.Latencies), stats.Failed, n)
		}
		for idx, ferr := range stats.FailedRequests {
			if !errors.Is(ferr, ErrInstanceCrashed) && !errors.Is(ferr, ErrDeadlineExceeded) {
				t.Fatalf("seed %d: request %d failed with untyped error: %v", seed, idx, ferr)
			}
		}
		if d := storeDigest(t, ms.Store); d != snap {
			t.Fatalf("seed %d: fault injection mutated the shared store", seed)
		}
	}
}

func TestDeadlineExceededTyped(t *testing.T) {
	ms := resSetup(t)
	pol := Policy{
		Scheme: core.SchemePaSK,
		FT:     FaultTolerance{Deadline: time.Microsecond, ContinueOnError: true},
	}
	const n = 5
	stats, err := ServeTrace(ms, pol, PoissonTrace(n, time.Millisecond, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadlineMisses != n || stats.Failed != n || len(stats.Latencies) != 0 {
		t.Fatalf("misses=%d failed=%d served=%d, want all %d missed",
			stats.DeadlineMisses, stats.Failed, len(stats.Latencies), n)
	}
	for idx, ferr := range stats.FailedRequests {
		if !errors.Is(ferr, ErrDeadlineExceeded) {
			t.Fatalf("request %d: %v does not wrap ErrDeadlineExceeded", idx, ferr)
		}
	}
}

// TestServeTraceRetrySchedule pins the request retry loop's virtual-time
// schedule. A transient storm the registry cannot absorb makes Baseline
// requests fail, retry twice with the seeded backoff, crash, and recover on
// a fresh instance or fail. The latencies pin the served work; the request
// spans, which include every backoff wait, pin the retry schedule itself.
func TestServeTraceRetrySchedule(t *testing.T) {
	ms := resSetup(t)
	rec := trace.New()
	pol := Policy{
		Scheme: core.SchemeBaseline,
		FT:     FaultTolerance{MaxRetries: 2, ContinueOnError: true, BackoffSeed: 7},
		Faults: faults.New(faults.Plan{Seed: 5, TransientRate: 0.6, MaxTransientBurst: 8}),
		Rec:    rec,
	}
	stats, err := ServeTrace(ms, pol, PoissonTrace(8, 2*time.Millisecond, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 4 || stats.Crashes != 2 || stats.Recovered != 1 || stats.Failed != 1 {
		t.Fatalf("retries=%d crashes=%d recovered=%d failed=%d, want 4/2/1/1",
			stats.Retries, stats.Crashes, stats.Recovered, stats.Failed)
	}
	wantLat := []time.Duration{183644265, 14132689, 14132689, 14132689, 14132689, 14132689, 14132689}
	if !reflect.DeepEqual(stats.Latencies, wantLat) {
		t.Fatalf("latencies = %v, want %v", stats.Latencies, wantLat)
	}
	var ends []time.Duration
	for _, s := range rec.Spans() {
		if s.Thread == "serving" {
			ends = append(ends, s.End)
		}
	}
	wantEnds := []time.Duration{462232207, 956061119, 970193808, 984326497,
		998459186, 1012591875, 1026724564, 1040857253}
	if !reflect.DeepEqual(ends, wantEnds) {
		t.Fatalf("request span ends = %v, want %v", ends, wantEnds)
	}
}

// TestDeviceResetRecovery fires the plan's device reset mid-trace: every
// module is dropped, and the instance must reload its way back without
// losing requests (the store is pristine in this plan).
func TestDeviceResetRecovery(t *testing.T) {
	ms := resSetup(t)
	inj := faults.New(faults.Plan{DeviceResetAt: 5 * time.Millisecond})
	pol := Policy{
		Scheme: core.SchemePaSK,
		FT:     FaultTolerance{MaxRetries: 1, ContinueOnError: true},
		Faults: inj,
	}
	const n = 20
	stats, err := ServeTrace(ms, pol, PoissonTrace(n, 2*time.Millisecond, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Resets != 1 {
		t.Fatalf("resets = %d, want 1", inj.Stats().Resets)
	}
	if got := len(stats.Latencies) + stats.Failed; got != n {
		t.Fatalf("%d served + %d failed != %d", len(stats.Latencies), stats.Failed, n)
	}
	if len(stats.Latencies) != n {
		t.Fatalf("reset with a pristine store lost %d requests: %v", stats.Failed, stats.FailedRequests)
	}
}

func TestScaleOutWithFaults(t *testing.T) {
	ms := resSetup(t)
	pol := Policy{
		Scheme: core.SchemePaSK,
		FT:     FaultTolerance{MaxRetries: 1, ContinueOnError: true},
		Faults: faults.New(faults.Plan{Seed: 2, TransientRate: 0.3}),
	}
	const n = 4
	stats, err := ServeFleetModels(fleetOf(ms), "res", FleetConfig{Policy: pol}, BurstTrace(n))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stats.Latencies) + stats.Failed; got != n {
		t.Fatalf("%d served + %d failed != %d", len(stats.Latencies), stats.Failed, n)
	}
	if len(stats.Latencies) != n {
		t.Fatalf("pure-transient storm lost requests: %v", stats.FailedRequests)
	}
}

func TestChaosDeterministic(t *testing.T) {
	o := experiments.Options{Models: []string{"alex"}}
	plan := faults.Plan{TransientRate: 0.1, PermanentRate: 0.02, Seed: 3}
	r1, err := Chaos(o, &plan)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Chaos(o, &plan)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := r1.Tables[0], r2.Tables[0]
	if !reflect.DeepEqual(t1.Rows, t2.Rows) {
		t.Fatalf("chaos table not deterministic:\n%v\nvs\n%v", t1.Rows, t2.Rows)
	}
	if len(t1.Rows) != 3 {
		t.Fatalf("rows = %d, want one per policy", len(t1.Rows))
	}
}

// TestChaosCellTakesPlanKeys checks that a one-cell chaos run honours plan
// keys beyond the two swept rates: a find-path outage changes the cell,
// and a request flood's arrivals are counted as requests.
func TestChaosCellTakesPlanKeys(t *testing.T) {
	o := experiments.Options{Models: []string{"alex"}}
	run := func(plan faults.Plan) *experiments.Table {
		t.Helper()
		res, err := Chaos(o, &plan)
		if err != nil {
			t.Fatal(err)
		}
		return res.Tables[0]
	}
	base := faults.Plan{TransientRate: 0.1, PermanentRate: 0.02, Seed: 3}
	plain := run(base)

	disabled := base
	disabled.DisableRate = 0.9
	if got := run(disabled); reflect.DeepEqual(got.Rows, plain.Rows) {
		t.Errorf("disable=0.9 left the cell unchanged:\n%v", got.Rows)
	}

	flooded := base
	flooded.FloodN = 15
	got := run(flooded)
	if reflect.DeepEqual(got.Rows, plain.Rows) {
		t.Errorf("flood_n=15 left the cell unchanged:\n%v", got.Rows)
	}
	if !strings.Contains(got.Title, " 75 requests") {
		t.Errorf("title %q, want 60 trace + 15 flood = 75 requests", got.Title)
	}
	for _, row := range got.Rows {
		if served := row[3]; !strings.HasSuffix(served, "/75") {
			t.Errorf("%s served %q, want a count out of 75", row[0], served)
		}
		if row[10] == "completed" && (row[3] != "75/75" || row[4] != "100.0%") {
			t.Errorf("%s completed but served %s (%s)", row[0], row[3], row[4])
		}
	}
}

// TestRecordFailureIdempotent pins the per-request failure accounting: a
// request index recorded twice (e.g. by a future code path that re-reports
// a replacement's error) must count one failure, keeping the
// served+failed==requests identity intact.
func TestRecordFailureIdempotent(t *testing.T) {
	s := &Stats{}
	s.recordFailure(3, ErrDeadlineExceeded)
	s.recordFailure(3, ErrInstanceCrashed)
	if s.Failed != 1 {
		t.Fatalf("Failed = %d after double report, want 1", s.Failed)
	}
	if len(s.FailedRequests) != 1 {
		t.Fatalf("FailedRequests = %v", s.FailedRequests)
	}
	if !errors.Is(s.FailedRequests[3], ErrInstanceCrashed) {
		t.Fatal("second report must keep the latest error")
	}
}

// TestReplacementAccountingSingleCounted is the spot-preemption audit
// regression: instances are preempted mid-trace AND crash on a permanently
// corrupt object, every replacement runs a warmup replay whose manifest is
// entirely stale — and the Stats must still single-count everything. Each
// instance folds its replay exactly once, each failed request counts once,
// and served+failed covers the trace.
func TestReplacementAccountingSingleCounted(t *testing.T) {
	ms := resSetup(t)
	rec, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, true)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	man := rec.Profile
	if man == nil || len(man.Entries) == 0 {
		t.Fatal("recording produced no profile")
	}
	for i := range man.Entries {
		man.Entries[i].Checksum++ // every replay entry is stale
	}

	plan := faults.Plan{PermanentRate: 0.05}
	plan.Seed = findHostileSeed(t, ms, plan)
	pol := Policy{
		Scheme: core.SchemePaSK,
		FT:     FaultTolerance{MaxRetries: 1, ContinueOnError: true},
		Warmup: map[string]*warmup.Manifest{"res": man},
		Faults: faults.New(plan),
	}
	const n = 12
	trace := PoissonTrace(n, 2*time.Millisecond, 3)
	stats, migrations, err := SpotPreemption(ms, pol, trace, 3)
	if err != nil {
		t.Fatal(err)
	}
	if migrations == 0 {
		t.Fatal("preemption points produced no migrations")
	}
	if got := len(stats.Latencies) + stats.Failed; got != n {
		t.Fatalf("served %d + failed %d != %d requests", len(stats.Latencies), stats.Failed, n)
	}
	if stats.Failed != len(stats.FailedRequests) {
		t.Fatalf("Failed = %d but FailedRequests holds %d entries", stats.Failed, len(stats.FailedRequests))
	}
	// One replay fold per instance: the initial one, one per preemption
	// replacement, one per crash replacement. A double fold would overshoot.
	instances := 1 + migrations + stats.Crashes
	if stats.WarmupReplays != instances {
		t.Fatalf("WarmupReplays = %d, want %d (1 initial + %d migrations + %d crashes)",
			stats.WarmupReplays, instances, migrations, stats.Crashes)
	}
	// Every replay saw the same all-stale manifest; a re-folded prefetcher
	// would double the stale count.
	if want := instances * len(man.Entries); stats.WarmupStale != want {
		t.Fatalf("WarmupStale = %d, want %d", stats.WarmupStale, want)
	}
	if stats.WarmupLoads != 0 {
		t.Fatalf("stale replays must load nothing, got %d", stats.WarmupLoads)
	}

	// The same audit on a shared fleet, whose tenants detach and re-attach
	// views instead of closing devices. Baseline, because PaSK's generality
	// ladder absorbs every fault on a shared host and nothing would crash.
	t.Run("shared-fleet", func(t *testing.T) {
		pol := Policy{
			Scheme: core.SchemeBaseline,
			FT:     FaultTolerance{MaxRetries: 1, ContinueOnError: true},
			Warmup: map[string]*warmup.Manifest{"res": man},
			Faults: faults.New(plan),
		}
		cfg := FleetConfig{Policy: pol, Shared: true, MaxInstances: 2, KeepAlive: 5 * time.Millisecond}
		fs, err := ServeFleetModels(fleetOf(ms), "res", cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		if fs.Crashes == 0 {
			t.Fatal("hostile plan crashed no tenant")
		}
		if got := len(fs.Latencies) + fs.Failed; got != n {
			t.Fatalf("served %d + failed %d != %d requests", len(fs.Latencies), fs.Failed, n)
		}
		// One replay fold per spawned tenant and one per crash replacement.
		if want := fs.Spawned + fs.Crashes; fs.WarmupReplays != want {
			t.Fatalf("WarmupReplays = %d, want %d (%d spawned + %d crashes)",
				fs.WarmupReplays, want, fs.Spawned, fs.Crashes)
		}
		if want := fs.WarmupReplays * len(man.Entries); fs.WarmupStale != want {
			t.Fatalf("WarmupStale = %d, want %d", fs.WarmupStale, want)
		}
		replaced := false
		for _, ts := range fs.TenantLoads {
			replaced = replaced || ts.Tenant == "res/0#1"
		}
		if !replaced {
			t.Fatalf("no generation-suffixed replacement view res/0#1 in %+v", fs.TenantLoads)
		}
		t.Logf("spawned %d, crashes %d, replays %d, stale %d", fs.Spawned, fs.Crashes, fs.WarmupReplays, fs.WarmupStale)
	})
}

// TestEmptyPlanIsNoPlan is the metamorphic relation that guards the fault
// seam: an injector whose plan injects nothing must leave a run exactly as
// a run without one — the same stats and the same Chrome trace bytes.
func TestEmptyPlanIsNoPlan(t *testing.T) {
	check := func(t *testing.T, serve func(Policy) (any, error)) {
		t.Helper()
		var stats [2]any
		var chrome [2][]byte
		for i, inj := range []*faults.Injector{nil, faults.New(faults.Plan{Seed: 9})} {
			rec := trace.New()
			st, err := serve(Policy{Scheme: core.SchemePaSK, Rec: rec, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rec.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			stats[i], chrome[i] = st, buf.Bytes()
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("stats differ:\nno plan    %+v\nempty plan %+v", stats[0], stats[1])
		}
		if !bytes.Equal(chrome[0], chrome[1]) {
			t.Errorf("Chrome traces differ (%d vs %d bytes)", len(chrome[0]), len(chrome[1]))
		}
	}
	t.Run("ServeTrace", func(t *testing.T) {
		ms := resSetup(t)
		tr := PoissonTrace(30, 2*time.Millisecond, 9)
		check(t, func(pol Policy) (any, error) { return ServeTrace(ms, pol, tr, 10) })
	})
	t.Run("shared-fleet", func(t *testing.T) {
		setups := setupSharedModels(t, "alex", "res")
		// Two waves far enough apart for keep-alive to reap the first.
		tr := InterleavedTrace([]string{"alex", "res"}, 4, 3*time.Millisecond)
		for _, r := range InterleavedTrace([]string{"res", "alex"}, 4, 3*time.Millisecond) {
			r.At += 500 * time.Millisecond
			tr = append(tr, r)
		}
		check(t, func(pol Policy) (any, error) {
			fs, err := ServeFleetModels(setups, "alex", FleetConfig{Policy: pol, Shared: true, MaxInstances: 2, KeepAlive: 5 * time.Millisecond}, tr)
			if err == nil && fs.Reaped == 0 {
				t.Errorf("no instance reaped: keep-alive untested (spawned %d)", fs.Spawned)
			}
			return fs, err
		})
	})
}

// TestChaosHonoursSelection checks that the registered chaos experiment runs
// the selected model at the first selected batch, a non-positive batch
// meaning 1.
func TestChaosHonoursSelection(t *testing.T) {
	e, ok := experiments.Lookup("chaos")
	if !ok {
		t.Fatal("chaos not registered")
	}
	for _, tc := range []struct {
		batches []int
		want    string
	}{
		{[]int{2, 4}, "alex b2 "},
		{[]int{-3}, "alex b1 "},
	} {
		res, err := e.Run(experiments.Options{Models: []string{"alex", "vgg"}, Batches: tc.batches})
		if err != nil {
			t.Fatal(err)
		}
		if title := res.Tables[0].Title; !strings.Contains(title, tc.want) {
			t.Errorf("batches %v: title %q, want it to name %q", tc.batches, title, tc.want)
		}
	}
}
