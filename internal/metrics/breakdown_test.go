package metrics

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// breakdownOracle is the original Breakdown: it re-scans every span at the
// midpoint of every gap between edges, O(edges x spans). It stays as the
// reference Busy's interval merge must agree with.
func breakdownOracle(spans []Span, t0, t1 time.Duration, priority []Category) map[Category]time.Duration {
	out := make(map[Category]time.Duration, len(priority)+1)
	if t1 <= t0 {
		return out
	}
	rank := make(map[Category]int, len(priority))
	for i, c := range priority {
		rank[c] = i + 1
	}
	// Collect edges inside the window.
	edges := []time.Duration{t0, t1}
	for _, s := range spans {
		if s.End <= t0 || s.Start >= t1 {
			continue
		}
		if s.Start > t0 {
			edges = append(edges, s.Start)
		}
		if s.End < t1 {
			edges = append(edges, s.End)
		}
	}
	slices.Sort(edges)
	for i := 1; i < len(edges); i++ {
		lo, hi := edges[i-1], edges[i]
		if hi <= lo {
			continue
		}
		mid := lo + (hi-lo)/2
		best := CatOther
		bestRank := len(priority) + 2
		for _, s := range spans {
			if s.Start <= mid && mid < s.End {
				if r, ok := rank[s.Cat]; ok && r < bestRank {
					bestRank = r
					best = s.Cat
				}
			}
		}
		out[best] += hi - lo
	}
	return out
}

// breakdownCats is the pool random cases draw from: every category, plus one
// no priority list names.
var breakdownCats = []Category{CatParse, CatLoad, CatLaunch, CatExec, CatCopy, CatOverhead,
	CatSync, CatTransform, CatRecovery, CatOther, "custom"}

// randomBreakdownCase draws one case: up to 24 spans on a small time grid so
// that edges coincide often, with zero-length, inverted, window-straddling
// and out-of-window spans; a window that may be empty or inverted; and a
// priority list that may skip categories and repeat one.
func randomBreakdownCase(r *rand.Rand) ([]Span, time.Duration, time.Duration, []Category) {
	at := func() time.Duration { return time.Duration(r.IntN(140) - 20) }
	spans := make([]Span, r.IntN(25))
	for i := range spans {
		s := &spans[i]
		s.Cat = breakdownCats[r.IntN(len(breakdownCats))]
		s.Start = at()
		switch r.IntN(10) {
		case 0:
			s.End = s.Start
		case 1:
			s.End = s.Start - time.Duration(1+r.IntN(10))
		default:
			s.End = s.Start + time.Duration(1+r.IntN(60))
		}
	}
	t0 := at()
	t1 := t0 + time.Duration(r.IntN(130)-10)
	priority := make([]Category, r.IntN(len(breakdownCats)))
	for i := range priority {
		priority[i] = breakdownCats[r.IntN(len(breakdownCats))]
	}
	if r.IntN(4) == 0 {
		priority = DefaultPriority()
	}
	return spans, t0, t1, priority
}

// TestBreakdownMatchesOracle requires Breakdown to return exactly the
// oracle's map, entries and all, on 20k seeded random cases. Each case runs
// twice, as drawn and stably sorted by End (the order a run records spans
// in, which takes Busy's append path), and each run goes through Breakdown
// and through a zero Tracer that recorded the spans (less the inverted ones,
// which it refuses and which add no time).
func TestBreakdownMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(18, 1))
	var clipped, empty, repeated int
	for i := 0; i < 20000; i++ {
		drawn, t0, t1, priority := randomBreakdownCase(r)
		want := breakdownOracle(drawn, t0, t1, priority)
		byEnd := slices.Clone(drawn)
		slices.SortStableFunc(byEnd, func(a, b Span) int { return cmp.Compare(a.End, b.End) })
		for order, spans := range [][]Span{drawn, byEnd} {
			if got := Breakdown(spans, t0, t1, priority); !maps.Equal(got, want) {
				t.Fatalf("case %d, order %d: Breakdown(%v, %v, %v, %v)\n got: %v\nwant: %v", i, order, spans, t0, t1, priority, got, want)
			}
			var tr Tracer
			for _, s := range spans {
				if s.End >= s.Start {
					tr.AddSpan(s)
				}
			}
			if got := tr.Breakdown(t0, t1, priority); !maps.Equal(got, want) {
				t.Fatalf("case %d, order %d: Tracer.Breakdown over %v, %v, %v, %v\n got: %v\nwant: %v", i, order, spans, t0, t1, priority, got, want)
			}
		}
		if t1 <= t0 {
			empty++
		}
		for _, s := range drawn {
			if s.Start < t0 && s.End > t0 || s.Start < t1 && s.End > t1 {
				clipped++
				break
			}
		}
		seen := map[Category]bool{}
		for _, c := range priority {
			if seen[c] {
				repeated++
				break
			}
			seen[c] = true
		}
	}
	// The generator must keep producing the cases the oracle check is for.
	for name, n := range map[string]int{"clipped": clipped, "empty or inverted window": empty, "repeated priority": repeated} {
		if n < 500 {
			t.Errorf("only %d cases with a %s", n, name)
		}
	}
}

// benchRun lays out a pipelined cold start of n layers the way the engine
// records one: parse, load, launch and exec per layer on four threads, with
// overhead queries and occasional layout transforms and copies between.
func benchRun(n int) []Span {
	r := rand.New(rand.NewPCG(2, 48))
	var spans []Span
	var parse, load, host, gpu time.Duration
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("layer%d", i)
		step := func(clock *time.Duration, cat Category, thread string, d int) {
			spans = append(spans, Span{Cat: cat, Name: name, Thread: thread, Start: *clock, End: *clock + time.Duration(d)*time.Microsecond})
			*clock += time.Duration(d) * time.Microsecond
		}
		step(&parse, CatParse, "parser", 20+r.IntN(40))
		load = max(load, parse)
		step(&load, CatOverhead, "loader", 5)
		step(&load, CatLoad, "loader", 100+r.IntN(400))
		host = max(host, load)
		step(&host, CatLaunch, "issuer", 10)
		if r.IntN(8) == 0 {
			step(&host, CatTransform, "issuer", 30)
		}
		gpu = max(gpu, host)
		if r.IntN(6) == 0 {
			step(&gpu, CatCopy, "gpu", 50)
		}
		step(&gpu, CatExec, "gpu", 50+r.IntN(300))
	}
	return spans
}

// BenchmarkBreakdown attributes a ~2k-span cold start (400 layers).
func BenchmarkBreakdown(b *testing.B) {
	spans := benchRun(400)
	var end time.Duration
	for i := range spans {
		end = max(end, spans[i].End)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Breakdown(spans, 0, end, DefaultPriority())
	}
}

// BenchmarkAddNamed records back-to-back spans on a zero Tracer with no
// observer: the cost every engine span pays in a single-run process.
func BenchmarkAddNamed(b *testing.B) {
	var tr Tracer
	attr := Attr{Key: "solution", Value: "ConvDirectNaiveFwd.pko"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * time.Microsecond
		tr.AddNamed(CatLaunch, "issue:", "conv1", "pask-issuer", at, at+time.Microsecond, attr)
	}
}
