package pask

import (
	"bytes"
	"strings"
	"testing"

	"pask/internal/trace"
)

// TestWithTrace pins the trace export path of the public API: the run writes
// valid Chrome trace_event JSON covering the pipeline's tracks, and the
// traced run's numbers match an untraced one.
func TestWithTrace(t *testing.T) {
	sys, err := NewSystem(Config{Model: "res"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	traced, err := sys.RunScheme(PaSK, WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := trace.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("WithTrace output invalid: %v", err)
	}
	if len(sum.Tracks) < 4 {
		t.Fatalf("trace tracks %v, want >= 4", sum.Tracks)
	}
	plain, err := sys.RunScheme(PaSK)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total != traced.Total || plain.Loads != traced.Loads {
		t.Fatalf("tracing perturbed the run: %+v vs %+v", plain, traced)
	}
}

// TestValidationCollectsAllErrors pins the errors.Join behavior: every
// invalid Config field is reported at once, and Batch < 0 is rejected even
// though 0 defaults to 1.
func TestValidationCollectsAllErrors(t *testing.T) {
	_, err := NewSystem(Config{Model: "bert", Batch: -2, Device: "H100", DType: "f64"})
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	msg := err.Error()
	for _, want := range []string{"bert", "-2", "H100", "f64"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error does not mention %q: %v", want, msg)
		}
	}
	// Batch == 0 still defaults rather than erroring.
	if _, err := NewSystem(Config{Model: "alex", Batch: 0}); err != nil {
		t.Fatalf("Batch 0 should default to 1: %v", err)
	}
}

// TestCategoryConstantsIndexBreakdown pins the typed-key promotion: the
// exported Category constants and raw string literals address the same map
// entries.
func TestCategoryConstantsIndexBreakdown(t *testing.T) {
	sys, err := NewSystem(Config{Model: "alex"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunScheme(Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breakdown[CatLoad] == 0 {
		t.Fatal("no load time attributed on a cold start")
	}
	if rep.Breakdown[CatLoad] != rep.Breakdown["load"] {
		t.Fatal("CatLoad and \"load\" index different entries")
	}
	if got := len(Categories()); got != 10 {
		t.Fatalf("Categories() = %d entries, want 10", got)
	}
}
