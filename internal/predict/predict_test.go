package predict

import (
	"testing"
)

// TestMarkovLearnsTransitions checks confidence is the row-relative
// transition frequency and the threshold suppresses weak signals.
func TestMarkovLearnsTransitions(t *testing.T) {
	m := NewMarkov()
	for i := 0; i < 3; i++ {
		m.Observe("a", "b")
	}
	m.Observe("a", "c")
	got := m.Next("a", 4, 0.5)
	if len(got) != 1 || got[0].Item != "b" {
		t.Fatalf("Next(a) = %v, want only b above 0.5", got)
	}
	if got[0].Confidence != 0.75 {
		t.Fatalf("confidence = %v, want 0.75", got[0].Confidence)
	}
	all := m.Next("a", 4, 0)
	if len(all) != 2 || all[0].Item != "b" || all[1].Item != "c" {
		t.Fatalf("Next(a, minConf=0) = %v", all)
	}
	if m.Next("zzz", 4, 0) != nil {
		t.Fatal("unknown state should predict nothing")
	}
}

// TestMarkovDeterministicTieBreak pins the by-name ordering for equal
// confidence.
func TestMarkovDeterministicTieBreak(t *testing.T) {
	m := NewMarkov()
	m.Observe("x", "b")
	m.Observe("x", "a")
	got := m.Next("x", 2, 0)
	if got[0].Item != "a" || got[1].Item != "b" {
		t.Fatalf("tie not broken by name: %v", got)
	}
}

// TestSketchRanksFrequency checks estimates track observation counts.
func TestSketchRanksFrequency(t *testing.T) {
	s := NewSketch(1 << 30)
	for i := 0; i < 90; i++ {
		s.Observe("hot")
	}
	for i := 0; i < 10; i++ {
		s.Observe("cold")
	}
	if h, c := s.Estimate("hot"), s.Estimate("cold"); h < c || h < 90 {
		t.Fatalf("estimates hot=%d cold=%d", h, c)
	}
	if s.Estimate("never") > 0 {
		t.Fatal("unseen item estimated above zero (collision in a near-empty sketch)")
	}
}

// TestSketchAgingAdaptsToShift is the point of the decay: after a
// popularity re-rank the new head overtakes the old one within a few
// decay periods even though the all-time counts say otherwise.
func TestSketchAgingAdaptsToShift(t *testing.T) {
	s := NewSketch(32)
	for i := 0; i < 200; i++ {
		s.Observe("old")
	}
	for i := 0; i < 100; i++ {
		s.Observe("new")
	}
	if o, n := s.Estimate("old"), s.Estimate("new"); n <= o {
		t.Fatalf("aged sketch still ranks old (%d) over new (%d) after the shift", o, n)
	}
}

// TestPredictorFuses drives the full predictor over a synthetic access
// stream with a mid-stream popularity shift.
func TestPredictorFuses(t *testing.T) {
	p := New(Config{MinConfidence: 0.3, Budget: 2, DecayEvery: 16})
	// Phase 1: a dominates, b follows a.
	for i := 0; i < 40; i++ {
		p.Observe("a")
		p.Observe("b")
	}
	if hot := p.Hot(2); len(hot) == 0 || (hot[0].Item != "a" && hot[0].Item != "b") {
		t.Fatalf("phase-1 hot = %v", hot)
	}
	if f := p.Follow("a"); len(f) == 0 || f[0].Item != "b" {
		t.Fatalf("Follow(a) = %v, want b", f)
	}
	// Phase 2: c takes over.
	for i := 0; i < 80; i++ {
		p.Observe("c")
	}
	hot := p.Hot(1)
	if len(hot) != 1 || hot[0].Item != "c" {
		t.Fatalf("post-shift hot = %v, want c", hot)
	}
	if f := p.Follow("c"); len(f) == 0 || f[0].Item != "c" {
		t.Fatalf("Follow(c) = %v", f)
	}
}

// TestPredictorBudget caps predictions at the configured budget.
func TestPredictorBudget(t *testing.T) {
	p := New(Config{MinConfidence: 0.01, Budget: 2})
	seq := []string{"a", "b", "a", "c", "a", "d", "a", "e"}
	for _, it := range seq {
		p.Observe(it)
	}
	if f := p.Follow("a"); len(f) > 2 {
		t.Fatalf("budget 2 returned %d predictions: %v", len(f), f)
	}
	if h := p.Hot(10); len(h) > 10 {
		t.Fatalf("Hot(10) returned %d", len(h))
	}
}
