package serving

import (
	"strings"
	"testing"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/warmup"
)

func setup(t *testing.T, abbr string) *experiments.ModelSetup {
	t.Helper()
	ms, err := experiments.PrepareModel(abbr, 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestPoissonTraceDeterministicAndMonotonic(t *testing.T) {
	a := PoissonTrace(50, 100*time.Millisecond, 7)
	b := PoissonTrace(50, 100*time.Millisecond, 7)
	if len(a) != 50 {
		t.Fatalf("trace length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace not deterministic")
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatal("arrivals not monotonic")
		}
	}
	c := PoissonTrace(50, 100*time.Millisecond, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestBurstTraceAllAtZero(t *testing.T) {
	tr := BurstTrace(5)
	if len(tr) != 5 {
		t.Fatalf("burst length %d", len(tr))
	}
	for _, r := range tr {
		if r.At != 0 {
			t.Fatal("burst arrivals must be simultaneous")
		}
	}
}

// TestPoissonTraceSeeds pins the generator's seed contract across a grid of
// (n, interval, seed): equal seeds replay the identical trace, different
// seeds diverge, and the empirical mean inter-arrival stays within a factor
// of two of the requested one (a loose sanity bound, not a statistics test).
func TestPoissonTraceSeeds(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		interval time.Duration
		seed     int64
	}{
		{"short fast", 20, time.Millisecond, 1},
		{"short slow", 20, 50 * time.Millisecond, 2},
		{"long", 200, 5 * time.Millisecond, 3},
		{"seed zero", 50, 10 * time.Millisecond, 0},
		{"negative seed", 50, 10 * time.Millisecond, -9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := PoissonTrace(c.n, c.interval, c.seed)
			b := PoissonTrace(c.n, c.interval, c.seed)
			if len(a) != c.n {
				t.Fatalf("length %d, want %d", len(a), c.n)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed diverged at request %d", i)
				}
				if i > 0 && a[i].At < a[i-1].At {
					t.Fatalf("arrivals not monotonic at %d", i)
				}
			}
			diff := PoissonTrace(c.n, c.interval, c.seed+1)
			same := true
			for i := range a {
				if a[i] != diff[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatal("adjacent seeds produced identical traces")
			}
			mean := a[c.n-1].At / time.Duration(c.n)
			if mean < c.interval/2 || mean > 2*c.interval {
				t.Fatalf("empirical mean interval %v implausible for %v", mean, c.interval)
			}
		})
	}
}

// TestTraceGeneratorShapes is the table-driven ordering contract for the
// deterministic generators: lengths, monotonic arrival times, and for the
// interleaved trace strict round-robin model assignment.
func TestTraceGeneratorShapes(t *testing.T) {
	models := []string{"res", "vgg", "bert"}
	cases := []struct {
		name string
		tr   Trace
		n    int
	}{
		{"burst empty", BurstTrace(0), 0},
		{"burst", BurstTrace(7), 7},
		{"interleaved empty", InterleavedTrace(nil, 3, time.Millisecond), 0},
		{"interleaved", InterleavedTrace(models, 4, 2*time.Millisecond), 12},
		{"poisson", PoissonTrace(30, time.Millisecond, 5), 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if len(c.tr) != c.n {
				t.Fatalf("length %d, want %d", len(c.tr), c.n)
			}
			for i := 1; i < len(c.tr); i++ {
				if c.tr[i].At < c.tr[i-1].At {
					t.Fatalf("arrivals not monotonic at %d", i)
				}
			}
		})
	}
	// Round-robin: request i carries models[i%len] at exactly i×interval.
	iv := 2 * time.Millisecond
	tr := InterleavedTrace(models, 4, iv)
	counts := make(map[string]int)
	for i, r := range tr {
		if r.Model != models[i%len(models)] {
			t.Fatalf("request %d model %q breaks round-robin", i, r.Model)
		}
		if r.At != time.Duration(i)*iv {
			t.Fatalf("request %d at %v, want %v", i, r.At, time.Duration(i)*iv)
		}
		counts[r.Model]++
	}
	for _, m := range models {
		if counts[m] != 4 {
			t.Fatalf("model %s got %d requests, want 4", m, counts[m])
		}
	}
}

func TestStatsPercentiles(t *testing.T) {
	s := &Stats{Latencies: []time.Duration{4, 1, 3, 2, 5}}
	if s.Percentile(0.5) != 3 {
		t.Fatalf("p50 = %v", s.Percentile(0.5))
	}
	if s.Percentile(1.0) != 5 {
		t.Fatalf("p100 = %v", s.Percentile(1.0))
	}
	if s.Percentile(0.01) != 1 {
		t.Fatalf("p1 = %v", s.Percentile(0.01))
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	empty := &Stats{}
	if empty.Percentile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty stats must be zero")
	}
}

func TestServeTraceWarmRequestsFaster(t *testing.T) {
	ms := setup(t, "alex")
	trace := PoissonTrace(4, 500*time.Millisecond, 1)
	stats, err := ServeTrace(ms, Policy{Scheme: core.SchemePaSK}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1", stats.ColdStarts)
	}
	if len(stats.Latencies) != 4 {
		t.Fatalf("latencies = %d", len(stats.Latencies))
	}
	cold := stats.Latencies[0]
	for i, warm := range stats.Latencies[1:] {
		if warm >= cold {
			t.Fatalf("warm request %d (%v) not faster than cold (%v)", i+1, warm, cold)
		}
	}
}

func TestBackgroundLoadingImprovesSecondRequest(t *testing.T) {
	ms := setup(t, "vgg")
	trace := PoissonTrace(3, 2*time.Second, 2)
	with, err := ServeTrace(ms, Policy{Scheme: core.SchemePaSK, BackgroundLoad: true}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	without, err := ServeTrace(ms, Policy{Scheme: core.SchemePaSK}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if with.BGLoads == 0 {
		t.Fatal("background loader idle despite gaps")
	}
	if without.BGLoads != 0 {
		t.Fatal("background loads without the policy")
	}
	if with.Latencies[1] > without.Latencies[1] {
		t.Fatalf("background loading should not slow request 2: %v vs %v",
			with.Latencies[1], without.Latencies[1])
	}
}

func TestEvictionForcesColdPath(t *testing.T) {
	ms := setup(t, "alex")
	trace := PoissonTrace(4, 300*time.Millisecond, 3)
	stats, err := ServeTrace(ms, Policy{Scheme: core.SchemePaSK}, trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ColdStarts != 2 {
		t.Fatalf("cold starts = %d, want 2 (evicted after request 2)", stats.ColdStarts)
	}
	// Request 3 (first after eviction) is slower than request 2 (warm).
	if stats.Latencies[2] <= stats.Latencies[1] {
		t.Fatalf("post-eviction request (%v) should be slower than warm (%v)",
			stats.Latencies[2], stats.Latencies[1])
	}
}

// fleetOf is the setup map of a single-model fleet, keyed by the model.
func fleetOf(ms *experiments.ModelSetup) map[string]*experiments.ModelSetup {
	return map[string]*experiments.ModelSetup{ms.Spec.Abbr: ms}
}

// The serverless scale-out spike: a burst on an uncapped fleet cold-starts
// one isolated instance per request.
func TestScaleOutColdStartsAcrossSchemes(t *testing.T) {
	ms := setup(t, "res")
	base, err := ServeFleetModels(fleetOf(ms), "res", FleetConfig{Policy: Policy{Scheme: core.SchemeBaseline}}, BurstTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	pask, err := ServeFleetModels(fleetOf(ms), "res", FleetConfig{Policy: Policy{Scheme: core.SchemePaSK}}, BurstTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	if base.ColdStarts != 3 || pask.ColdStarts != 3 {
		t.Fatal("every scale-out instance must cold start")
	}
	if pask.Mean() >= base.Mean() {
		t.Fatalf("PaSK scale-out (%v) not faster than baseline (%v)", pask.Mean(), base.Mean())
	}
	// Instances are independent: cold latencies are identical per scheme.
	for _, l := range base.Latencies[1:] {
		if l != base.Latencies[0] {
			t.Fatal("independent instances should have identical cold latency")
		}
	}
}

func TestSpotPreemptionCausesRepeatedColdStarts(t *testing.T) {
	ms := setup(t, "alex")
	trace := PoissonTrace(6, 200*time.Millisecond, 4)
	stats, migrations, err := SpotPreemption(ms, Policy{Scheme: core.SchemePaSK}, trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	if migrations != 2 {
		t.Fatalf("migrations = %d, want 2", migrations)
	}
	if stats.ColdStarts != 3 {
		t.Fatalf("cold starts = %d, want 3 (initial + per migration)", stats.ColdStarts)
	}
	if _, _, err := SpotPreemption(ms, Policy{Scheme: core.SchemePaSK}, trace, 0); err == nil {
		t.Fatal("preemptEvery=0 must error")
	}
}

// An unknown scheme is a configuration error, not a request to serve PaSK.
func TestServeRejectsUnknownScheme(t *testing.T) {
	ms := setup(t, "alex")
	_, err := ServeTrace(ms, Policy{Scheme: "Bogus"}, BurstTrace(1), 0)
	if err == nil || !strings.Contains(err.Error(), `"Bogus"`) {
		t.Fatalf("ServeTrace with scheme Bogus: err = %v, want an error naming the scheme", err)
	}
}

func TestIdealInstanceServesFastestColdStart(t *testing.T) {
	ms := setup(t, "alex")
	trace := BurstTrace(1)
	var results = map[core.Scheme]time.Duration{}
	for _, sch := range []core.Scheme{core.SchemeBaseline, core.SchemePaSK, core.SchemeIdeal} {
		stats, err := ServeTrace(ms, Policy{Scheme: sch}, trace, 0)
		if err != nil {
			t.Fatal(err)
		}
		results[sch] = stats.Latencies[0]
	}
	if !(results[core.SchemeIdeal] <= results[core.SchemePaSK] &&
		results[core.SchemePaSK] < results[core.SchemeBaseline]) {
		t.Fatalf("ordering violated: %v", results)
	}
}

func TestFleetReusesWarmInstance(t *testing.T) {
	ms := setup(t, "alex")
	// Sparse arrivals: one instance handles everything warm.
	trace := PoissonTrace(5, time.Second, 11)
	stats, err := ServeFleetModels(fleetOf(ms), ms.Spec.Abbr, FleetConfig{Policy: Policy{Scheme: core.SchemePaSK}, KeepAlive: time.Minute}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spawned != 1 || stats.ColdStarts != 1 {
		t.Fatalf("spawned=%d cold=%d, want 1/1", stats.Spawned, stats.ColdStarts)
	}
	if stats.Reaped != 0 {
		t.Fatalf("reaped=%d, want 0 under long keep-alive", stats.Reaped)
	}
	for i, l := range stats.Latencies[1:] {
		if l >= stats.Latencies[0] {
			t.Fatalf("warm request %d (%v) not faster than cold (%v)", i+1, l, stats.Latencies[0])
		}
	}
}

func TestFleetScalesOutOnBurst(t *testing.T) {
	ms := setup(t, "alex")
	stats, err := ServeFleetModels(fleetOf(ms), ms.Spec.Abbr, FleetConfig{Policy: Policy{Scheme: core.SchemePaSK}}, BurstTrace(4))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spawned != 4 || stats.ColdStarts != 4 || stats.MaxConcurrent != 4 {
		t.Fatalf("burst should spawn one instance per request: %+v", stats)
	}
}

func TestFleetKeepAliveExpiryCausesColdStart(t *testing.T) {
	ms := setup(t, "alex")
	trace := Trace{{At: 0}, {At: 3 * time.Second}}
	stats, err := ServeFleetModels(fleetOf(ms), ms.Spec.Abbr, FleetConfig{
		Policy: Policy{Scheme: core.SchemePaSK}, KeepAlive: time.Second,
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reaped != 1 || stats.Spawned != 2 || stats.ColdStarts != 2 {
		t.Fatalf("keep-alive expiry should force a new cold instance: %+v", stats)
	}
}

func TestFleetCapQueuesRequests(t *testing.T) {
	ms := setup(t, "alex")
	stats, err := ServeFleetModels(fleetOf(ms), ms.Spec.Abbr, FleetConfig{
		Policy: Policy{Scheme: core.SchemeBaseline}, MaxInstances: 1,
	}, BurstTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spawned != 1 || stats.MaxConcurrent != 1 {
		t.Fatalf("cap violated: %+v", stats)
	}
	// Queued requests wait: later latencies strictly exceed earlier ones.
	if !(stats.Latencies[0] < stats.Latencies[1] && stats.Latencies[1] < stats.Latencies[2]) {
		t.Fatalf("queueing not reflected in latencies: %v", stats.Latencies)
	}
	// Only the first request is cold; the rest are served warm in order.
	if stats.ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1", stats.ColdStarts)
	}
}

func TestFleetPaSKBeatsBaselineOnBurst(t *testing.T) {
	ms := setup(t, "res")
	base, err := ServeFleetModels(fleetOf(ms), ms.Spec.Abbr, FleetConfig{Policy: Policy{Scheme: core.SchemeBaseline}}, BurstTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	pask, err := ServeFleetModels(fleetOf(ms), ms.Spec.Abbr, FleetConfig{Policy: Policy{Scheme: core.SchemePaSK}}, BurstTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	if pask.Percentile(0.99) >= base.Percentile(0.99) {
		t.Fatalf("PaSK fleet p99 (%v) not better than baseline (%v)",
			pask.Percentile(0.99), base.Percentile(0.99))
	}
}

// TestPolicyWarmupReplaysOnSpawn records a load profile once, hands it to the
// serving policy and checks a fresh instance replays it and banks the
// accounting into Stats. (Request latency is measured after process bring-up,
// where the replay's benefit lands — the time-to-first-inference win is
// asserted in experiments.TestWarmupBeatsColdOnAllDevices.)
func TestPolicyWarmupReplaysOnSpawn(t *testing.T) {
	ms := setup(t, "alex")
	rec, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, true)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if rec.Profile == nil || len(rec.Profile.Entries) == 0 {
		t.Fatal("recording produced no profile")
	}

	trace := PoissonTrace(2, 500*time.Millisecond, 1)
	cold, err := ServeTrace(ms, Policy{Scheme: core.SchemePaSK}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmupReplays != 0 || cold.WarmupLoads != 0 {
		t.Fatalf("policy without warmup reported replays: %+v", cold)
	}

	pol := Policy{Scheme: core.SchemePaSK,
		Warmup: map[string]*warmup.Manifest{"alex": rec.Profile}}
	warm, err := ServeTrace(ms, pol, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmupReplays != 1 {
		t.Fatalf("WarmupReplays = %d, want 1", warm.WarmupReplays)
	}
	if warm.WarmupLoads == 0 {
		t.Fatalf("replay loaded nothing: %+v", warm)
	}
	if warm.WarmupStale != 0 {
		t.Errorf("fresh profile reported %d stale entries", warm.WarmupStale)
	}
	if len(warm.Latencies) != len(cold.Latencies) {
		t.Errorf("warmed arm served %d requests, cold served %d",
			len(warm.Latencies), len(cold.Latencies))
	}
}

// TestPolicyWarmupStaleNeverFails poisons every checksum in the policy's
// manifest: serving must proceed exactly as cold, counting the stale entries.
func TestPolicyWarmupStaleNeverFails(t *testing.T) {
	ms := setup(t, "alex")
	rec, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, true)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	man := rec.Profile
	for i := range man.Entries {
		man.Entries[i].Checksum++
	}
	pol := Policy{Scheme: core.SchemePaSK,
		Warmup: map[string]*warmup.Manifest{"alex": man}}
	stats, err := ServeTrace(ms, pol, PoissonTrace(2, 500*time.Millisecond, 1), 0)
	if err != nil {
		t.Fatalf("stale manifest must not fail serving: %v", err)
	}
	if stats.WarmupStale != len(man.Entries) {
		t.Fatalf("WarmupStale = %d, want %d", stats.WarmupStale, len(man.Entries))
	}
	if stats.WarmupLoads != 0 {
		t.Fatalf("stale replay must load nothing: %+v", stats)
	}
}
