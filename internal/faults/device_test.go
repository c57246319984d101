package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/sim"
)

func TestParsePlanDeviceKeys(t *testing.T) {
	p, err := ParsePlan("gpu_kill_ms=25,gpu_kill=2,gpu_kill_rate=0.3,gpu_kill_from_ms=10,gpu_kill_until_ms=60," +
		"degrade_factor=4,degrade_transient=0.5,degrade_from_ms=5,degrade_until_ms=15,degrade_gpu=1," +
		"link_flap_from_ms=20,link_flap_until_ms=40,link_flap_gpu=3,link_flap_stall_ms=2")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.GPUKillAt != 25*time.Millisecond || p.GPUKillIdx != 2 || p.GPUKillRate != 0.3 ||
		p.GPUKillFrom != 10*time.Millisecond || p.GPUKillUntil != 60*time.Millisecond {
		t.Fatalf("gpu-kill fields mismatch: %+v", p)
	}
	if p.DegradeFactor != 4 || p.DegradeTransient != 0.5 || p.DegradeGPU != 1 ||
		p.DegradeFrom != 5*time.Millisecond || p.DegradeUntil != 15*time.Millisecond {
		t.Fatalf("degrade fields mismatch: %+v", p)
	}
	if p.LinkFlapFrom != 20*time.Millisecond || p.LinkFlapUntil != 40*time.Millisecond ||
		p.LinkFlapGPU != 3 || p.LinkFlapStall != 2*time.Millisecond {
		t.Fatalf("link-flap fields mismatch: %+v", p)
	}
}

func TestParsePlanDeviceKeysMalformed(t *testing.T) {
	for _, spec := range []string{
		"gpu_kill_rate=1.5",                          // rate out of range
		"gpu_kill=-1",                                // negative GPU index
		"gpu_kill=1.5",                               // fractional GPU index
		"gpu_kill_ms=-3",                             // negative time
		"degrade_factor=0.5",                         // multiplier below 1
		"degrade_factor=x",                           // not a number
		"degrade_transient=-0.1",                     // negative rate
		"degrade_gpu=one",                            // not an index
		"link_flap_gpu=-2",                           // negative GPU index
		"link_flap_stall_ms=-1",                      // negative stall
		"gpu_kill_from_ms=30,gpu_kill_until_ms=30",   // empty window
		"degrade_from_ms=20,degrade_until_ms=10",     // inverted window
		"link_flap_from_ms=50,link_flap_until_ms=40", // inverted window
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a malformed spec", spec)
		}
	}
	// A zero until means "forever" and must stay legal.
	if _, err := ParsePlan("degrade_factor=2,degrade_from_ms=10"); err != nil {
		t.Fatalf("open-ended window rejected: %v", err)
	}
}

func TestDeviceLossAtScheduledAndSeeded(t *testing.T) {
	var nilInj *Injector
	if _, ok := nilInj.DeviceLossAt(0); ok {
		t.Fatal("nil injector condemned a GPU")
	}

	// Scheduled kill hits exactly its GPU at exactly its time.
	inj := New(Plan{GPUKillAt: 25 * time.Millisecond, GPUKillIdx: 1})
	if at, ok := inj.DeviceLossAt(1); !ok || at != 25*time.Millisecond {
		t.Fatalf("DeviceLossAt(1) = %v, %v", at, ok)
	}
	if _, ok := inj.DeviceLossAt(0); ok {
		t.Fatal("scheduled kill leaked onto another GPU")
	}

	// Seeded kills are deterministic in (seed, idx) and land inside the window.
	plan := Plan{Seed: 7, GPUKillRate: 0.5,
		GPUKillFrom: 10 * time.Millisecond, GPUKillUntil: 60 * time.Millisecond}
	a, b := New(plan), New(plan)
	var condemned int
	for idx := 0; idx < 32; idx++ {
		atA, okA := a.DeviceLossAt(idx)
		atB, okB := b.DeviceLossAt(idx)
		if okA != okB || atA != atB {
			t.Fatalf("gpu %d: replay diverged (%v,%v) vs (%v,%v)", idx, atA, okA, atB, okB)
		}
		if okA {
			condemned++
			if atA < plan.GPUKillFrom || atA >= plan.GPUKillUntil {
				t.Fatalf("gpu %d dies at %v, outside [%v, %v)", idx, atA, plan.GPUKillFrom, plan.GPUKillUntil)
			}
		}
	}
	if condemned == 0 || condemned == 32 {
		t.Fatalf("condemned %d of 32 GPUs at rate 0.5", condemned)
	}
}

func TestArmGPUDeathFiresOnceAndCounts(t *testing.T) {
	env := sim.NewEnv()
	inj := New(Plan{GPUKillAt: 5 * time.Millisecond, GPUKillIdx: 0})
	kills := 0
	inj.ArmGPUDeath(env, 0, func() { kills++ })
	inj.ArmGPUDeath(env, 0, func() { kills++ }) // idempotent per GPU
	inj.ArmGPUDeath(env, 1, func() { kills++ }) // not condemned: no watcher
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if kills != 1 {
		t.Fatalf("kill fired %d times, want 1", kills)
	}
	if env.Now() != 5*time.Millisecond {
		t.Fatalf("death fired at %v, want 5ms", env.Now())
	}
	if inj.Stats().GPULosses != 1 {
		t.Fatalf("GPULosses = %d, want 1", inj.Stats().GPULosses)
	}
}

func TestLinkFaultWindowAndTarget(t *testing.T) {
	var nilInj *Injector
	if _, down := nilInj.LinkFault(0, 0, 1); down {
		t.Fatal("nil injector flapped a link")
	}

	plan := Plan{LinkFlapFrom: 20 * time.Millisecond, LinkFlapUntil: 40 * time.Millisecond, LinkFlapGPU: 1}
	inj := New(plan)
	if _, down := inj.LinkFault(10*time.Millisecond, 0, 1); down {
		t.Fatal("flap fired before the window")
	}
	if _, down := inj.LinkFault(40*time.Millisecond, 0, 1); down {
		t.Fatal("flap fired at the exclusive window end")
	}
	if _, down := inj.LinkFault(30*time.Millisecond, 0, 2); down {
		t.Fatal("flap hit a link not touching the target GPU")
	}
	if stall, down := inj.LinkFault(20*time.Millisecond, 1, 3); !down || stall != 0 {
		t.Fatalf("in-window transfer on the flapping GPU = (%v, %v), want hard failure", stall, down)
	}
	if inj.Stats().LinkFaults != 1 {
		t.Fatalf("LinkFaults = %d, want 1", inj.Stats().LinkFaults)
	}

	// With a stall configured the transfer survives but pays the stall.
	slow := New(Plan{LinkFlapFrom: 20 * time.Millisecond, LinkFlapUntil: 40 * time.Millisecond,
		LinkFlapGPU: 1, LinkFlapStall: 3 * time.Millisecond})
	if stall, down := slow.LinkFault(25*time.Millisecond, 2, 1); down || stall != 3*time.Millisecond {
		t.Fatalf("stalled transfer = (%v, %v), want 3ms stall without failure", stall, down)
	}
}

func TestGPUViewScopesDegradation(t *testing.T) {
	var nilInj *Injector
	if v := nilInj.GPUView(0); v != nil {
		t.Fatal("nil injector produced a view")
	}
	var nilView *GPUInjector
	if nilView.LoadLatencyScale(0) != 1 || nilView.ExtraLoadError(0, "m.pko") != nil ||
		nilView.ExtraLoadLatency(0, "m.pko") != 0 {
		t.Fatal("nil view is not inert")
	}

	inj := New(Plan{Seed: 3, DegradeGPU: 1, DegradeFactor: 4, DegradeTransient: 1,
		DegradeFrom: 10 * time.Millisecond, DegradeUntil: 30 * time.Millisecond})
	sick, healthy := inj.GPUView(1), inj.GPUView(0)
	if sick.GPU() != 1 || healthy.GPU() != 0 {
		t.Fatalf("view indices = %d, %d", sick.GPU(), healthy.GPU())
	}

	// Scaling hits only the degraded GPU inside the window.
	if f := healthy.LoadLatencyScale(20 * time.Millisecond); f != 1 {
		t.Fatalf("healthy GPU scaled by %v", f)
	}
	if f := sick.LoadLatencyScale(5 * time.Millisecond); f != 1 {
		t.Fatalf("pre-window scale = %v", f)
	}
	if f := sick.LoadLatencyScale(20 * time.Millisecond); f != 4 {
		t.Fatalf("in-window scale = %v, want 4", f)
	}
	if f := sick.LoadLatencyScale(30 * time.Millisecond); f != 1 {
		t.Fatalf("post-window scale = %v", f)
	}

	// The elevated transient rate is typed, burst-capped, and scoped the
	// same way.
	if err := healthy.ExtraLoadError(20*time.Millisecond, "m.pko"); err != nil {
		t.Fatalf("healthy GPU saw degradation error %v", err)
	}
	err := sick.ExtraLoadError(20*time.Millisecond, "m.pko")
	if err == nil {
		t.Fatal("rate-1 degradation injected nothing")
	}
	if !errors.Is(err, codeobj.ErrIO) {
		t.Fatalf("degradation error %v does not wrap codeobj.ErrIO", err)
	}
	if !strings.Contains(err.Error(), "gpu1") {
		t.Errorf("degradation error %q does not name the GPU", err)
	}
	// Default burst cap is 2: the third consecutive roll passes.
	if err := sick.ExtraLoadError(20*time.Millisecond, "m.pko"); err == nil {
		t.Fatal("second consecutive fault should fire under the default burst cap")
	}
	if err := sick.ExtraLoadError(20*time.Millisecond, "m.pko"); err != nil {
		t.Fatalf("burst cap did not break the failure run: %v", err)
	}

	st := inj.Stats()
	if st.DegradedLoads != 1 || st.DegradedFaults != 2 {
		t.Fatalf("stats = %+v, want 1 degraded load and 2 degraded faults", st)
	}
}
