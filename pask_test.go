package pask

import (
	"reflect"
	"testing"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Config{Model: "alex"})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Instructions() == 0 || sys.PrimitiveLayers() == 0 {
		t.Fatalf("empty system: %d instrs, %d layers", sys.Instructions(), sys.PrimitiveLayers())
	}
}

func TestNewSystemValidation(t *testing.T) {
	cases := []Config{
		{},                              // missing model
		{Model: "bert"},                 // unknown model
		{Model: "alex", Device: "H100"}, // unknown device
		{Model: "alex", DType: "f64"},   // unknown dtype
		{Model: "alex", Batch: -1},      // bad batch
	}
	for _, cfg := range cases {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("NewSystem(%+v) should fail", cfg)
		}
	}
}

func TestSchemeOrderingOnResNet(t *testing.T) {
	sys, err := NewSystem(Config{Model: "res"})
	if err != nil {
		t.Fatal(err)
	}
	reports := map[Scheme]*Report{}
	for _, sch := range []Scheme{Baseline, NNV12, PaSK, Ideal} {
		rep, err := sys.RunScheme(sch)
		if err != nil {
			t.Fatal(err)
		}
		reports[sch] = rep
	}
	// The paper's ordering: Ideal < PaSK < NNV12 < Baseline in time.
	if !(reports[Ideal].Total < reports[PaSK].Total &&
		reports[PaSK].Total < reports[NNV12].Total &&
		reports[NNV12].Total < reports[Baseline].Total) {
		t.Fatalf("ordering violated: ideal=%v pask=%v nnv12=%v base=%v",
			reports[Ideal].Total, reports[PaSK].Total, reports[NNV12].Total, reports[Baseline].Total)
	}
	if reports[PaSK].SkippedLoads == 0 || reports[PaSK].HitRate() == 0 {
		t.Fatalf("PaSK reuse inactive: %+v", reports[PaSK])
	}
	if reports[Baseline].Loads <= reports[PaSK].Loads {
		t.Fatalf("baseline loads (%d) should exceed PaSK loads (%d)",
			reports[Baseline].Loads, reports[PaSK].Loads)
	}
	// Utilization rises from Baseline to PaSK to Ideal (paper Fig 6b).
	if !(reports[Baseline].Utilization() < reports[PaSK].Utilization() &&
		reports[PaSK].Utilization() < reports[Ideal].Utilization()) {
		t.Fatalf("utilization ordering violated: base=%.3f pask=%.3f ideal=%.3f",
			reports[Baseline].Utilization(), reports[PaSK].Utilization(), reports[Ideal].Utilization())
	}
}

func TestColdHotSlowdownBand(t *testing.T) {
	sys, err := NewSystem(Config{Model: "res"})
	if err != nil {
		t.Fatal(err)
	}
	cold, hot, err := sys.ColdHot()
	if err != nil {
		t.Fatal(err)
	}
	ratio := cold.Seconds() / hot.Seconds()
	// Paper Fig 1a: slowdowns in the tens.
	if ratio < 5 || ratio > 120 {
		t.Fatalf("cold/hot = %.1f, outside plausible band (cold=%v hot=%v)", ratio, cold, hot)
	}
}

func TestModelsAndDevices(t *testing.T) {
	if len(Models()) != 12 {
		t.Fatalf("Models() = %d entries", len(Models()))
	}
	if len(Devices()) != 3 {
		t.Fatalf("Devices() = %d entries", len(Devices()))
	}
	if len(Schemes()) != 6 {
		t.Fatalf("Schemes() = %d entries", len(Schemes()))
	}
}

func TestBlasScopeOption(t *testing.T) {
	sys, err := NewSystem(Config{Model: "swin"})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.RunScheme(PaSK)
	if err != nil {
		t.Fatal(err)
	}
	scoped, err := sys.RunScheme(PaSK, WithBlasScope())
	if err != nil {
		t.Fatal(err)
	}
	if scoped.Total > plain.Total {
		t.Fatalf("BLAS scope slowed swin down: %v vs %v", scoped.Total, plain.Total)
	}
}

// The §VI extensions are PASK's: NNV12 and Ideal run the same cold start
// with or without the BLAS scope, whichever entry point asks for it.
func TestBlasScopeIgnoredOutsidePaSK(t *testing.T) {
	sys, err := NewSystem(Config{Model: "swin"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []Scheme{NNV12, Ideal} {
		plain, err := sys.RunScheme(sch)
		if err != nil {
			t.Fatal(err)
		}
		scoped, err := sys.RunScheme(sch, WithBlasScope())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scoped, plain) {
			t.Errorf("%s: BLAS scope changed the report:\n got %+v\nwant %+v", sch, scoped, plain)
		}
	}
}

func TestReportDerivedValues(t *testing.T) {
	sys, err := NewSystem(Config{Model: "vgg"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunScheme(Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds() <= 0 {
		t.Fatal("non-positive run time")
	}
	if rep.Utilization() <= 0 || rep.Utilization() >= 1 {
		t.Fatalf("utilization = %v", rep.Utilization())
	}
	if rep.Loads == 0 || rep.LoadedBytes == 0 {
		t.Fatal("baseline cold start must load code objects")
	}
	var sum int64
	for _, v := range rep.Breakdown {
		sum += int64(v)
	}
	if sum != int64(rep.Total) {
		t.Fatalf("breakdown sums to %d, total %d", sum, rep.Total)
	}
}

func TestWithPressureOption(t *testing.T) {
	sys, err := NewSystem(Config{Model: "res"})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.RunScheme(PaSK)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PressureReuse != 0 {
		t.Fatalf("nominal run reported PressureReuse = %d", plain.PressureReuse)
	}
	severe, err := sys.RunScheme(PaSK, WithPressure(PressureSevere))
	if err != nil {
		t.Fatal(err)
	}
	if severe.PressureReuse == 0 {
		t.Fatal("severe pressure produced no forced reuse")
	}
	if severe.Loads >= plain.Loads {
		t.Fatalf("severe pressure loads %d not below nominal %d", severe.Loads, plain.Loads)
	}
}
