package core

import (
	"testing"

	"pask/internal/graphx"
	"pask/internal/sim"
)

func TestPressureLevelStrings(t *testing.T) {
	cases := map[PressureLevel]string{
		PressureNominal:  "nominal",
		PressureElevated: "elevated",
		PressureSevere:   "severe",
	}
	for lvl, want := range cases {
		if lvl.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(lvl), lvl.String(), want)
		}
	}
	// A nil source means nominal — the executor must not need a guard at
	// every call site.
	if (Options{}).pressure() != PressureNominal {
		t.Fatal("nil pressure source must read as nominal")
	}
	if (Options{Pressure: StaticPressure(PressureSevere)}).pressure() != PressureSevere {
		t.Fatal("static pressure source not passed through")
	}
}

// TestSeverePressureReducesLoads runs full PASK cold twice — nominal and
// pinned-severe — and checks the pressure signal's contract: under severe
// pressure the executor substitutes already-resident solutions for loads it
// would otherwise issue (fewer module loads, forced substitutions recorded),
// and the run still completes every layer.
func TestSeverePressureReducesLoads(t *testing.T) {
	h := newHarness(t, "res", 1, graphx.CompileOptions{})

	var nominal, severe *Result
	_, nomRunner := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		nominal, err = RunInterleaved(p, r, h.model, seededCat(r), true, Options{})
		return err
	})
	_, sevRunner := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		severe, err = RunInterleaved(p, r, h.model, seededCat(r), true,
			Options{Pressure: StaticPressure(PressureSevere)})
		return err
	})

	if nominal.PressureReuse != 0 {
		t.Fatalf("nominal run recorded %d pressure reuses", nominal.PressureReuse)
	}
	if severe.PressureReuse == 0 {
		t.Fatal("severe pressure produced no forced reuse")
	}
	nomLoads := nomRunner.RT.Stats().ModuleLoads
	sevLoads := sevRunner.RT.Stats().ModuleLoads
	if sevLoads >= nomLoads {
		t.Fatalf("severe loads %d not below nominal %d", sevLoads, nomLoads)
	}
	// (Completion is asserted by coldRun: an undecidable layer fails the run.)
	if severe.SkippedLoads <= nominal.SkippedLoads {
		t.Fatalf("severe skipped %d loads, nominal %d — pressure must skip strictly more",
			severe.SkippedLoads, nominal.SkippedLoads)
	}
	// Pressure substitutions ride the existing recovery bookkeeping, marked
	// forced — the same audit trail the degradation ladder leaves.
	forced := 0
	for _, sub := range severe.Substitutions {
		if sub.Forced {
			forced++
		}
	}
	if forced < severe.PressureReuse {
		t.Fatalf("forced substitutions %d < pressure reuses %d", forced, severe.PressureReuse)
	}
	// Pressure reuse must not inflate the failure-degradation counter: no
	// faults ran here.
	if severe.Degraded() != nominal.Degraded() {
		t.Fatalf("pressure reuse leaked into Degraded(): %d vs %d", severe.Degraded(), nominal.Degraded())
	}
}

// TestElevatedPressureSequentialReuse drives the PaSK-R sequential path:
// elevated pressure lets a categorical miss fall back to any resident
// solution instead of a demand load. A categorical cache makes the branch
// observable — its GetSub only matches within a category, so cross-category
// reuse can only come from the pressure fallback.
func TestElevatedPressureSequentialReuse(t *testing.T) {
	h := newHarness(t, "res", 1, graphx.CompileOptions{})

	var nominal, elevated *Result
	_, nomRunner := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		nominal, err = RunSequentialReuse(p, r, h.model, NewCategoricalCache(), Options{})
		return err
	})
	_, elevRunner := h.coldRun(t, func(p *sim.Proc, r *graphx.Runner) error {
		var err error
		elevated, err = RunSequentialReuse(p, r, h.model, NewCategoricalCache(),
			Options{Pressure: StaticPressure(PressureElevated)})
		return err
	})

	if elevated.PressureReuse == 0 {
		t.Fatal("elevated pressure produced no cross-category reuse")
	}
	if el, nl := elevRunner.RT.Stats().ModuleLoads, nomRunner.RT.Stats().ModuleLoads; el >= nl {
		t.Fatalf("elevated loads %d not below nominal %d", el, nl)
	}
	if elevated.SkippedLoads <= nominal.SkippedLoads {
		t.Fatalf("elevated skipped %d loads, nominal %d", elevated.SkippedLoads, nominal.SkippedLoads)
	}
}
