package serving

import (
	"errors"
	"testing"
	"time"

	"pask/internal/core"
	"pask/internal/experiments"
	"pask/internal/faults"
)

// TestBreakerStateMachine walks the closed→open→half-open→closed cycle with
// explicit virtual times and checks every transition and its accounting at
// breakerThreshold and breakerCooldown.
func TestBreakerStateMachine(t *testing.T) {
	stats := &Stats{}
	b := newBreaker("res", 1, stats, nil)
	fail := errors.New("boom")

	if b.state != BreakerClosed {
		t.Fatalf("initial state = %v", b.state)
	}
	// Two failures, a success, two more failures: the success resets the
	// consecutive count, so the breaker must still be closed.
	b.observe(0, fail)
	b.observe(1, fail)
	b.observe(2, nil)
	b.observe(3, fail)
	b.observe(4, fail)
	if b.state != BreakerClosed {
		t.Fatalf("state after interleaved success = %v", b.state)
	}
	// Third consecutive failure trips it.
	b.observe(5, fail)
	if b.state != BreakerOpen {
		t.Fatalf("state after %d consecutive failures = %v", breakerThreshold, b.state)
	}
	if stats.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d", stats.BreakerTrips)
	}
	if b.allow(5) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	// The cooldown is deterministic: base 25ms (attempt 0) with ±25% jitter.
	cool := b.reopenAt - 5
	if want := expBackoff(25*time.Millisecond, 200*time.Millisecond, 0, 1, "res"); cool != want {
		t.Fatalf("cooldown = %v, want %v", cool, want)
	}
	if cool < 18750*time.Microsecond || cool > 31250*time.Microsecond {
		t.Fatalf("cooldown %v outside the ±25%% jitter band", cool)
	}
	// After the cooldown the next request is a half-open probe.
	if !b.allow(b.reopenAt) {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v", b.state)
	}
	// One probe success closes it.
	b.observe(b.reopenAt+1, nil)
	if b.state != BreakerClosed {
		t.Fatalf("state after a probe success = %v", b.state)
	}
	if stats.BreakerRecoveries != 1 {
		t.Fatalf("BreakerRecoveries = %d", stats.BreakerRecoveries)
	}
}

// TestBreakerHalfOpenFailureBacksOff verifies a failed probe reopens the
// breaker immediately and that repeated trips stretch the cooldown
// exponentially until the cap.
func TestBreakerHalfOpenFailureBacksOff(t *testing.T) {
	stats := &Stats{}
	b := newBreaker("m", 9, stats, nil)
	fail := errors.New("boom")

	now := time.Duration(0)
	for i := 0; i < breakerThreshold-1; i++ {
		b.observe(now, fail)
	}
	var cooldowns []time.Duration
	for i := 0; i < 5; i++ {
		b.observe(now, fail) // the threshold-th failure; in half-open any failure
		if b.state != BreakerOpen {
			t.Fatalf("trip %d: state = %v", i, b.state)
		}
		cooldowns = append(cooldowns, b.reopenAt-now)
		now = b.reopenAt
		if !b.allow(now) || b.state != BreakerHalfOpen {
			t.Fatalf("trip %d: breaker did not half-open", i)
		}
	}
	// Cooldowns grow while uncapped...
	if cooldowns[1] <= cooldowns[0] || cooldowns[2] <= cooldowns[1] {
		t.Fatalf("cooldowns not growing: %v", cooldowns)
	}
	// ...and settle at the cap (±25% jitter of 8×breakerCooldown).
	last := cooldowns[len(cooldowns)-1]
	if last < 150*time.Millisecond || last > 250*time.Millisecond {
		t.Fatalf("capped cooldown %v outside the jittered cap band", last)
	}
	if stats.BreakerTrips != 5 {
		t.Fatalf("BreakerTrips = %d", stats.BreakerTrips)
	}
	// A probe success after all that closes it and resets the streak.
	b.observe(now, nil)
	if b.state != BreakerClosed || b.streak != 0 {
		t.Fatalf("state=%v streak=%d after recovery", b.state, b.streak)
	}
}

// TestExpBackoff pins the deterministic-jitter contract: same inputs, same
// wait; distinct keys desynchronize; the cap holds under jitter on attempt
// growth; zero base disables it.
func TestExpBackoff(t *testing.T) {
	if expBackoff(0, time.Second, 3, 1, "k") != 0 {
		t.Fatal("zero base must yield zero backoff")
	}
	a := expBackoff(time.Millisecond, 8*time.Millisecond, 2, 42, "res")
	b := expBackoff(time.Millisecond, 8*time.Millisecond, 2, 42, "res")
	if a != b {
		t.Fatalf("backoff not deterministic: %v vs %v", a, b)
	}
	if c := expBackoff(time.Millisecond, 8*time.Millisecond, 2, 42, "vgg"); c == a {
		t.Fatal("distinct keys should draw distinct jitter")
	}
	// attempt 2 doubles twice: 4ms ±25%.
	if a < 3*time.Millisecond || a > 5*time.Millisecond {
		t.Fatalf("attempt-2 backoff %v outside [3ms,5ms]", a)
	}
	// Far past the cap the value stays inside the jittered cap band.
	d := expBackoff(time.Millisecond, 8*time.Millisecond, 30, 42, "res")
	if d < 6*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("capped backoff %v outside [6ms,10ms]", d)
	}
}

// TestAdmissionShouldShed checks the staleness verdict at shedQueueDeadline,
// the backlog it reports, and that only a shedding guard acts on it.
func TestAdmissionShouldShed(t *testing.T) {
	tr := Trace{{At: 0}, {At: 1 * time.Millisecond}, {At: 2 * time.Millisecond}, {At: 3 * time.Millisecond}, {At: 90 * time.Millisecond}}
	cases := []struct {
		name  string
		i     int
		now   time.Duration
		shed  bool
		depth int
	}{
		// Backlog behind request 0 at t=5ms: requests 1..3 have arrived;
		// request 4 hasn't, so it never counts.
		{"future excluded", 0, 5 * time.Millisecond, false, 3},
		// Staleness: request 0 dispatched exactly at, then just past, the
		// deadline; request 4 has arrived by then.
		{"deadline ok", 0, shedQueueDeadline, false, 4},
		{"deadline over", 0, shedQueueDeadline + 1, true, 4},
		{"late arrival fresh", 4, shedQueueDeadline + 1, false, 0},
	}
	for _, c := range cases {
		shed, depth := shouldShed(tr, c.i, c.now)
		if shed != c.shed || depth != c.depth {
			t.Errorf("%s: shouldShed = (%v,%d), want (%v,%d)", c.name, shed, depth, c.shed, c.depth)
		}
	}
	// The backlog feeds a brownout-only guard, which never sheds.
	stats := &Stats{}
	g := newOverloadGuard(&FleetConfig{Brownout: true}, stats)
	if err := g.admit(shedQueueDeadline+1, tr, 0); err != nil || stats.Shed != 0 {
		t.Fatalf("brownout-only guard shed: err=%v shed=%d", err, stats.Shed)
	}
	g = newOverloadGuard(&FleetConfig{Shedding: true}, stats)
	if err := g.admit(shedQueueDeadline+1, tr, 0); !errors.Is(err, ErrShed) || stats.Shed != 1 {
		t.Fatalf("shedding guard: err=%v shed=%d, want ErrShed and 1", err, stats.Shed)
	}
}

func TestApplyFlood(t *testing.T) {
	base := Trace{{At: 0}, {At: 10 * time.Millisecond}}
	out := ApplyFlood(base, faults.Plan{FloodN: 3, FloodAt: 4 * time.Millisecond, FloodGap: time.Millisecond})
	if len(out) != 5 {
		t.Fatalf("flooded trace length %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].At < out[i-1].At {
			t.Fatalf("flooded trace not time-sorted: %v", out)
		}
	}
	// The three flood arrivals land at 4,5,6ms between the base requests.
	var floodAts []time.Duration
	for _, r := range out {
		if r.At >= 4*time.Millisecond && r.At <= 6*time.Millisecond {
			floodAts = append(floodAts, r.At)
		}
	}
	if len(floodAts) != 3 {
		t.Fatalf("flood arrivals = %v", floodAts)
	}
	// No flood in the plan: the trace passes through untouched.
	if same := ApplyFlood(base, faults.Plan{}); len(same) != len(base) {
		t.Fatalf("plan without flood changed the trace: %d requests", len(same))
	}
}

// TestBrownoutHysteresis drives the controller through rise and relax at
// brownoutEnterDepth and brownoutSevereDepth and checks the
// one-level-per-observation drain.
func TestBrownoutHysteresis(t *testing.T) {
	stats := &Stats{}
	// Pressure relaxes at brownoutEnterDepth/2 = 1.
	b := newBrownout(stats, nil)

	b.observeDepth(0, brownoutEnterDepth-1) // below enter: no change
	if b.Pressure() != core.PressureNominal {
		t.Fatalf("pressure below enter depth = %v", b.Pressure())
	}
	b.observeDepth(1, brownoutEnterDepth)
	if b.Pressure() != core.PressureElevated {
		t.Fatalf("pressure at enter depth = %v", b.Pressure())
	}
	b.observeDepth(2, brownoutSevereDepth+5)
	if b.Pressure() != core.PressureSevere {
		t.Fatalf("pressure at severe depth = %v", b.Pressure())
	}
	// Between the exit and severe depths a severe level holds.
	b.observeDepth(3, brownoutSevereDepth-1)
	if b.Pressure() != core.PressureSevere {
		t.Fatalf("pressure inside hysteresis band = %v", b.Pressure())
	}
	// At or below exit depth: one level per observation, not a cliff.
	b.observeDepth(4, brownoutEnterDepth/2)
	if b.Pressure() != core.PressureElevated {
		t.Fatalf("first relax = %v", b.Pressure())
	}
	b.observeDepth(5, 0)
	if b.Pressure() != core.PressureNominal {
		t.Fatalf("second relax = %v", b.Pressure())
	}
	if stats.BrownoutEnters != 1 || stats.PressurePeak != int(core.PressureSevere) {
		t.Fatalf("enters=%d peak=%d", stats.BrownoutEnters, stats.PressurePeak)
	}
}

// TestFleetOverloadInvariant runs the protected fleet on a burst and checks
// the accounting identity under shedding, breakers and brownout: every
// request is exactly one of served, failed, shed, breaker-rejected or
// evacuated.
func TestFleetOverloadInvariant(t *testing.T) {
	ms := resSetup(t)
	cfg := FleetConfig{
		Policy:       Policy{Scheme: core.SchemePaSK, FT: FaultTolerance{ContinueOnError: true}},
		MaxInstances: 2,
		Shedding:     true,
		Brownout:     true,
	}
	const n = 24
	stats, err := ServeFleetModels(fleetOf(ms), ms.Spec.Abbr, cfg, BurstTrace(n))
	if err != nil {
		t.Fatal(err)
	}
	got := len(stats.Latencies) + stats.Failed + stats.Shed + stats.BreakerRejected + stats.Evacuated
	if got != n {
		t.Fatalf("served+failed+shed+rejected+evacuated = %d, want %d", got, n)
	}
	if stats.Shed == 0 {
		t.Fatal("deadline admission must shed under a 24-request burst on 2 instances")
	}
	if stats.PressurePeak == 0 {
		t.Fatal("brownout never raised pressure under a saturating burst")
	}
	if stats.PressureReuse == 0 {
		t.Fatal("severe pressure produced no forced reuse on cold starts")
	}
}

// TestOverloadAcceptance runs the full experiment and checks the headline
// claims on every device profile: on the burst trace the brownout arm beats
// the unprotected arm on both p99 and loss rate, and on the Poisson trace
// the protected arms' breakers both trip and recover.
func TestOverloadAcceptance(t *testing.T) {
	res, err := Overload(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bench := res.Bench.(*OverloadBench)
	for _, dev := range bench.Devices {
		cells := make(map[string]OverloadCell)
		for _, c := range dev.Cells {
			cells[c.Trace+"/"+c.Arm] = c
		}
		none, brown := cells["burst/none"], cells["burst/brownout"]
		if brown.P99Ms >= none.P99Ms {
			t.Errorf("%s burst: brownout p99 %.2fms not below none %.2fms", dev.Device, brown.P99Ms, none.P99Ms)
		}
		if brown.LossRate >= none.LossRate {
			t.Errorf("%s burst: brownout loss %.2f not below none %.2f", dev.Device, brown.LossRate, none.LossRate)
		}
		if brown.PressureReuse == 0 {
			t.Errorf("%s burst: brownout arm recorded no pressure-forced reuse", dev.Device)
		}
		if brown.ModuleLoads >= none.ModuleLoads {
			t.Errorf("%s burst: brownout loads %d not below none %d", dev.Device, brown.ModuleLoads, none.ModuleLoads)
		}
		for _, arm := range []string{"shed", "brownout"} {
			c := cells["poisson/"+arm]
			if c.BreakerTrips == 0 || c.BreakerRecoveries == 0 {
				t.Errorf("%s poisson/%s: trips=%d recoveries=%d, want both > 0", dev.Device, arm, c.BreakerTrips, c.BreakerRecoveries)
			}
			if c.BreakerRejected == 0 {
				t.Errorf("%s poisson/%s: open breaker rejected nothing", dev.Device, arm)
			}
		}
		// Each cell's accounting identity.
		for key, c := range cells {
			if got := c.Served + c.Failed + c.Shed + c.BreakerRejected; got != c.Requests {
				t.Errorf("%s %s: served+failed+shed+rejected = %d, want %d", dev.Device, key, got, c.Requests)
			}
		}
	}
}
