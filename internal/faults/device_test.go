package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/sim"
)

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
