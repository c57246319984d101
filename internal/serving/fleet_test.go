package serving

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/sim"
)

func setupSharedModels(t *testing.T, models ...string) map[string]*experiments.ModelSetup {
	t.Helper()
	setups, err := experiments.PrepareModelsShared(models, 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	return setups
}

// A permanently faulting instance must not squat in the pool: after its
// keep-alive expires it is reaped like any idle instance, even though it
// never served a request successfully (Warm() stays false forever).
func TestFleetReapsFaultedInstance(t *testing.T) {
	ms := setup(t, "alex")
	inj := faults.New(faults.Plan{PermanentRate: 1, Seed: 3})
	trace := Trace{{At: 0}, {At: 3 * time.Second}}
	stats, err := ServeFleetModels(fleetOf(ms), ms.Spec.Abbr, FleetConfig{
		Policy: Policy{
			Scheme: core.SchemePaSK, Faults: inj,
			// Fail fast: with the recovery ladder on, the resident generics
			// would serve every layer degraded and the instance would warm up.
			Options: core.Options{NoDegradation: true},
			FT:      FaultTolerance{ContinueOnError: true},
		},
		KeepAlive: time.Second,
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 2 {
		t.Fatalf("failed = %d, want 2 under total corruption", stats.Failed)
	}
	if stats.Reaped != 1 {
		t.Fatalf("reaped = %d, want 1: faulted cold instance must age out", stats.Reaped)
	}
	if stats.Spawned != 2 {
		t.Fatalf("spawned = %d, want 2 (fresh instance after the reap)", stats.Spawned)
	}
}

// At the cap, a request for another model swaps out an idle foreign-model
// instance instead of waiting forever.
func TestFleetSwapsIdleForeignModelAtCap(t *testing.T) {
	setups := setupSharedModels(t, "alex", "res")
	trace := Trace{{At: 0, Model: "alex"}, {At: time.Second, Model: "res"}}
	stats, err := ServeFleetModels(setups, "alex", FleetConfig{
		Policy: Policy{Scheme: core.SchemePaSK}, MaxInstances: 1,
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swapped != 1 || stats.Spawned != 2 || stats.MaxConcurrent != 1 {
		t.Fatalf("swapped=%d spawned=%d maxConcurrent=%d, want 1/2/1",
			stats.Swapped, stats.Spawned, stats.MaxConcurrent)
	}
	if len(stats.Latencies) != 2 {
		t.Fatalf("served %d of 2", len(stats.Latencies))
	}
}

// A request arriving at the cap with every instance busy waits for a
// completion; its end-to-end latency includes the queueing delay.
func TestFleetModelsWaitAtCapWhenAllBusy(t *testing.T) {
	setups := setupSharedModels(t, "alex", "res")
	trace := Trace{{At: 0, Model: "alex"}, {At: 0, Model: "res"}}
	stats, err := ServeFleetModels(setups, "alex", FleetConfig{
		Policy: Policy{Scheme: core.SchemePaSK}, MaxInstances: 1,
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxConcurrent != 1 {
		t.Fatalf("cap violated: maxConcurrent=%d", stats.MaxConcurrent)
	}
	if len(stats.Latencies) != 2 {
		t.Fatalf("served %d of 2", len(stats.Latencies))
	}
	if stats.Latencies[1] <= stats.Latencies[0] {
		t.Fatalf("queued request (%v) should wait out the first (%v)",
			stats.Latencies[1], stats.Latencies[0])
	}
	// Once the first request frees the slot, its idle instance is swapped
	// out for the second model.
	if stats.Swapped != 1 {
		t.Fatalf("swapped = %d, want 1", stats.Swapped)
	}
}

// Requests for a model without a setup fail the whole trace with a clear
// error rather than panicking mid-dispatch.
func TestFleetModelsRejectsUnknownModel(t *testing.T) {
	setups := setupSharedModels(t, "alex")
	_, err := ServeFleetModels(setups, "alex", FleetConfig{
		Policy: Policy{Scheme: core.SchemePaSK},
	}, Trace{{At: 0, Model: "nope"}})
	if err == nil {
		t.Fatal("expected error for unknown model")
	}

	// The unknown model arrives while request 0 is still in flight: the
	// call must report it, not tear streams down under the running request.
	setups = setupSharedModels(t, "res")
	before := runtime.NumGoroutine()
	_, err = ServeFleetModels(setups, "res", FleetConfig{
		Policy: Policy{Scheme: core.SchemePaSK},
	}, Trace{{At: 0}, {At: time.Millisecond, Model: "nope"}})
	if err == nil || !strings.Contains(err.Error(), `serving: request 1 targets unknown model "nope"`) {
		t.Fatalf("err = %v, want request 1's unknown-model error", err)
	}
	expectGoroutines(t, before)
}

// A fail-fast fleet aborts on its first failed request while later arrivals
// are still undispatched: the call returns that request's error, with every
// in-flight process drained and nothing left blocked.
func TestFleetFailFastAbortsWithRequestError(t *testing.T) {
	setups := setupSharedModels(t, "res")
	before := runtime.NumGoroutine()
	_, err := ServeFleetModels(setups, "res", FleetConfig{
		Policy: Policy{
			Scheme: core.SchemeBaseline,
			Faults: faults.New(faults.Plan{Seed: 2, PermanentRate: 1}),
		},
	}, PoissonTrace(5, 500*time.Millisecond, 1))
	var dl *sim.DeadlockError
	if errors.As(err, &dl) {
		t.Fatalf("fail-fast abort deadlocked: %v", err)
	}
	if !errors.Is(err, codeobj.ErrCorrupt) {
		t.Fatalf("err = %v, want the failed request's codeobj.ErrCorrupt", err)
	}
	expectGoroutines(t, before)
}

// An empty trace serves nothing, spawns nothing and leaves no process
// blocked: the fleet closes with nothing in flight.
func TestFleetEmptyTrace(t *testing.T) {
	for _, shared := range []bool{false, true} {
		setups := setupSharedModels(t, "res")
		before := runtime.NumGoroutine()
		stats, err := ServeFleetModels(setups, "res", FleetConfig{
			Policy: Policy{Scheme: core.SchemePaSK}, Shared: shared,
		}, nil)
		if err != nil {
			t.Fatalf("shared=%v: %v", shared, err)
		}
		if len(stats.Latencies) != 0 || stats.Spawned != 0 || stats.MaxConcurrent != 0 ||
			stats.ColdStarts != 0 || stats.Failed != 0 || stats.ModuleLoads != 0 || len(stats.ColdByModel) != 0 {
			t.Fatalf("shared=%v: empty trace produced %+v", shared, stats)
		}
		expectGoroutines(t, before)
	}
}

// expectGoroutines fails t unless the goroutine count settles back to
// before: a sim process left parked keeps its goroutine forever.
func expectGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the call, %d before: a process was left blocked", n, before)
	}
}

// Percentile clamps out-of-range and NaN quantiles instead of panicking on a
// slice index, and repeated calls reuse the cached sorted order.
func TestStatsPercentileGuards(t *testing.T) {
	s := &Stats{Latencies: []time.Duration{4, 1, 3, 2, 5}}
	if got := s.Percentile(-0.5); got != 1 {
		t.Fatalf("q<0 should clamp to min, got %v", got)
	}
	if got := s.Percentile(1.5); got != 5 {
		t.Fatalf("q>1 should clamp to max, got %v", got)
	}
	nan := 0.0
	if got := s.Percentile(nan / nan); got != 1 {
		t.Fatalf("NaN q should clamp to min, got %v", got)
	}
	// Appending after a query invalidates the cached sorted slice.
	s.Latencies = append(s.Latencies, 10)
	if got := s.Percentile(1.0); got != 10 {
		t.Fatalf("cache not refreshed after append: p100 = %v", got)
	}
}
