package faults

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/sim"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	data := []byte{1, 2, 3}
	got, err := inj.StoreGet("a.pko", data)
	if err != nil || &got[0] != &data[0] {
		t.Fatalf("nil injector altered read: %v %v", got, err)
	}
	if inj.ExtraLoadLatency(0, "a.pko") != 0 {
		t.Fatal("nil injector injected latency")
	}
	if inj.DisabledIDs([]string{"x"}) != nil {
		t.Fatal("nil injector disabled solutions")
	}
	inj.Exempt("a.pko")
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector stats %+v", s)
	}
}

func TestDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 7, TransientRate: 0.3, PermanentRate: 0.1, SpikeRate: 0.2}
	run := func() ([]bool, []bool, []bool) {
		inj := New(plan)
		data := []byte("payload-bytes")
		var ioFail, corrupt, spiked []bool
		for i := 0; i < 200; i++ {
			path := "obj" + string(rune('a'+i%7)) + ".pko"
			got, err := inj.StoreGet(path, data)
			ioFail = append(ioFail, err != nil)
			corrupt = append(corrupt, err == nil && got[len(got)/2] != data[len(data)/2])
			spiked = append(spiked, inj.ExtraLoadLatency(0, path) > 0)
		}
		return ioFail, corrupt, spiked
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] || c1[i] != c2[i] {
			t.Fatalf("replay diverged at access %d", i)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	mask := func(seed int64) (m uint64) {
		inj := New(Plan{Seed: seed, TransientRate: 0.5})
		for i := 0; i < 64; i++ {
			if _, err := inj.StoreGet("x.pko", []byte{0}); err != nil {
				m |= 1 << i
			}
		}
		return m
	}
	if mask(1) == mask(2) {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestTransientBurstCap(t *testing.T) {
	// TransientRate 1.0 would fail forever without the burst cap.
	inj := New(Plan{Seed: 1, TransientRate: 1.0, MaxTransientBurst: 2})
	fails := 0
	for i := 0; i < 9; i++ {
		_, err := inj.StoreGet("x.pko", []byte{0})
		if err != nil {
			if !codeobj.IsTransient(err) {
				t.Fatalf("injected error %v is not transient", err)
			}
			fails++
		} else {
			if fails != 2 {
				t.Fatalf("burst of %d before success, want 2", fails)
			}
			fails = 0
		}
	}
}

func TestPermanentCorruptionIsSticky(t *testing.T) {
	inj := New(Plan{Seed: 3, PermanentRate: 1.0})
	data := []byte("pristine-object-bytes")
	for i := 0; i < 3; i++ {
		got, err := inj.StoreGet("x.pko", data)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if &got[0] == &data[0] {
			t.Fatal("corrupted read aliases the stored bytes")
		}
		if got[len(got)/2] == data[len(data)/2] {
			t.Fatalf("read %d not corrupted", i)
		}
	}
	if string(data) != "pristine-object-bytes" {
		t.Fatal("injector mutated the shared store copy")
	}
}

func TestExemptPathsAreUntouched(t *testing.T) {
	inj := New(Plan{Seed: 1, TransientRate: 1.0, PermanentRate: 1.0})
	inj.Exempt("safe.pko")
	data := []byte{9, 9, 9}
	for i := 0; i < 5; i++ {
		got, err := inj.StoreGet("safe.pko", data)
		if err != nil || &got[0] != &data[0] {
			t.Fatalf("exempt path faulted: %v %v", got, err)
		}
	}
}

func TestDisabledIDsSeededSubset(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	inj := New(Plan{Seed: 5, DisableRate: 0.5})
	a := inj.DisabledIDs(ids)
	b := inj.DisabledIDs(ids)
	if len(a) == 0 || len(a) == len(ids) {
		t.Fatalf("disable subset size %d not a strict subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic subset: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic subset: %v vs %v", a, b)
		}
	}
}

func TestArmResetFiresOnce(t *testing.T) {
	inj := New(Plan{Seed: 1, DeviceResetAt: 10 * time.Millisecond})
	env := sim.NewEnv()
	resets := 0
	inj.ArmReset(env, func() { resets++ })
	inj.ArmReset(env, func() { resets++ }) // second arm must be a no-op
	env.Spawn("work", func(p *sim.Proc) { p.Sleep(20 * time.Millisecond) })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resets != 1 {
		t.Fatalf("reset fired %d times, want 1", resets)
	}
	if inj.Stats().Resets != 1 {
		t.Fatalf("stats resets = %d", inj.Stats().Resets)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("transient=0.1, permanent=0.02,seed=7,burst=3,spike=0.05,spike_ms=3,reset_ms=40,disable=0.1")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.TransientRate != 0.1 || p.PermanentRate != 0.02 || p.Seed != 7 ||
		p.MaxTransientBurst != 3 || p.SpikeRate != 0.05 ||
		p.SpikeExtra != 3*time.Millisecond || p.DeviceResetAt != 40*time.Millisecond ||
		p.DisableRate != 0.1 {
		t.Fatalf("plan mismatch: %+v", p)
	}
	for _, spec := range []string{"model=x", "transient=0.1,model=res", "requests=50"} {
		if _, err := ParsePlan(spec); err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Fatalf("ParsePlan(%q) = %v, want an unknown-key error", spec, err)
		}
	}
	if _, err := ParsePlan("transient=2"); err == nil {
		t.Fatal("rate >1 accepted")
	}
	if _, err := ParsePlan("junk"); err == nil {
		t.Fatal("missing '=' accepted")
	}
	if p, err := ParsePlan(""); err != nil || p != (Plan{}) {
		t.Fatalf("empty spec: %+v %v", p, err)
	}
}

// TestParsePlanRejectsNonFinite covers values that slip past a plain range
// check: NaN compares false with every bound, ±Inf is a valid float, and a
// finite millisecond count can still overflow time.Duration.
func TestParsePlanRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"transient=NaN", "is not a rate in [0,1]"},
		{"permanent=nan", "is not a rate in [0,1]"},
		{"spike=+Inf", "is not a rate in [0,1]"},
		{"disable=-Inf", "is not a rate in [0,1]"},
		{"spike=NaN", "is not a rate in [0,1]"},
		{"spike_ms=NaN", "is not a millisecond count"},
		{"slow_ms=Inf", "is not a millisecond count"},
		{"flood_ms=-Inf", "is not a millisecond count"},
		{"reset_ms=1e300", "is not a millisecond count"},
		{"slow_from_ms=9223372036854.775808", "is not a millisecond count"},
		{"flood_gap_ms=1e400", "is not a millisecond count"},
	} {
		if _, err := ParsePlan(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePlan(%q) error = %v, want one containing %q", tc.spec, err, tc.want)
		}
	}
	// A whole count just below the overflow bound still parses, to within a
	// millisecond of the largest time.Duration.
	p, err := ParsePlan("reset_ms=9223372036854")
	if err != nil || p.DeviceResetAt < time.Duration(math.MaxInt64)-time.Millisecond {
		t.Fatalf("reset_ms just below the bound: %v, %v", p.DeviceResetAt, err)
	}
}

func TestClampedRates(t *testing.T) {
	inj := New(Plan{TransientRate: -1, PermanentRate: 2})
	if pl := inj.Plan(); pl.TransientRate != 0 || pl.PermanentRate != 1 {
		t.Fatalf("rates not clamped: %+v", pl)
	}
}

func TestInjectedErrorsAreTyped(t *testing.T) {
	inj := New(Plan{Seed: 1, TransientRate: 1.0})
	_, err := inj.StoreGet("x.pko", []byte{0})
	if !errors.Is(err, codeobj.ErrIO) {
		t.Fatalf("injected error %v does not wrap codeobj.ErrIO", err)
	}
}

func TestSlowLoaderWindow(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		now  time.Duration
		want time.Duration
	}{
		{"before window", Plan{SlowLoadExtra: 5 * time.Millisecond, SlowFrom: 10 * time.Millisecond, SlowUntil: 30 * time.Millisecond}, 9 * time.Millisecond, 0},
		{"at start (inclusive)", Plan{SlowLoadExtra: 5 * time.Millisecond, SlowFrom: 10 * time.Millisecond, SlowUntil: 30 * time.Millisecond}, 10 * time.Millisecond, 5 * time.Millisecond},
		{"inside", Plan{SlowLoadExtra: 5 * time.Millisecond, SlowFrom: 10 * time.Millisecond, SlowUntil: 30 * time.Millisecond}, 20 * time.Millisecond, 5 * time.Millisecond},
		{"at end (exclusive)", Plan{SlowLoadExtra: 5 * time.Millisecond, SlowFrom: 10 * time.Millisecond, SlowUntil: 30 * time.Millisecond}, 30 * time.Millisecond, 0},
		{"zero until means forever", Plan{SlowLoadExtra: 5 * time.Millisecond, SlowFrom: 10 * time.Millisecond}, time.Hour, 5 * time.Millisecond},
		{"no extra means disabled", Plan{SlowFrom: 0, SlowUntil: time.Hour}, time.Millisecond, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := New(tc.plan)
			if got := inj.ExtraLoadLatency(tc.now, "m.pko"); got != tc.want {
				t.Fatalf("ExtraLoadLatency(%v) = %v, want %v", tc.now, got, tc.want)
			}
		})
	}
}

func TestSlowLoaderStacksWithSpike(t *testing.T) {
	// SpikeRate 1 fires on every load; inside the window a load pays both
	// the spike and the brownout extra.
	inj := New(Plan{Seed: 1, SlowLoadExtra: 4 * time.Millisecond,
		SpikeRate: 1, SpikeExtra: 3 * time.Millisecond})
	if got := inj.ExtraLoadLatency(0, "m.pko"); got != 7*time.Millisecond {
		t.Fatalf("stacked extra = %v, want 7ms", got)
	}
	if st := inj.Stats(); st.LatencySpikes != 1 {
		t.Fatalf("stats = %+v, want one spike", st)
	}
}

func TestParsePlanOverloadKeys(t *testing.T) {
	p, err := ParsePlan("slow_ms=2,slow_from_ms=10,slow_until_ms=30,flood_n=20,flood_ms=5,flood_gap_ms=0.5")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.SlowLoadExtra != 2*time.Millisecond || p.SlowFrom != 10*time.Millisecond ||
		p.SlowUntil != 30*time.Millisecond {
		t.Fatalf("slow-loader fields mismatch: %+v", p)
	}
	if p.FloodN != 20 || p.FloodAt != 5*time.Millisecond || p.FloodGap != 500*time.Microsecond {
		t.Fatalf("flood fields mismatch: %+v", p)
	}
	if _, err := ParsePlan("flood_n=-1"); err == nil {
		t.Fatal("negative flood_n accepted")
	}
	if _, err := ParsePlan("flood_n=2.5"); err == nil {
		t.Fatal("fractional flood_n accepted")
	}
}

// TestRollPinned pins Roll's output: every seeded fault decision, the
// serving rigs' whole-GPU and image-pull faults included, is one Roll, so a
// changed value would move every fault envelope.
func TestRollPinned(t *testing.T) {
	for _, c := range []struct {
		seed      int64
		kind, key string
		n         int
		want      float64
	}{
		{0, "io", "a.pko", 0, 0.9136811759714376},
		{7, "perm", "obj.pko", 0, 0.12831183175647287},
		{13, "img-kill", "node-0-of-3", 0, 0.5833922850566019},
		{13, "img-trunc", "node-2-of-8", 1, 0.7407720991458748},
		{11, "degrade", "gpu0|m.pko", 3, 0.6014788701065185},
		{-5, "spike", "x", 42, 0.1125954301011094},
	} {
		if got := Roll(c.seed, c.kind, c.key, c.n); got != c.want {
			t.Errorf("Roll(%d, %q, %q, %d) = %v, want %v", c.seed, c.kind, c.key, c.n, got, c.want)
		}
	}
}
