package metrics

import (
	"maps"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// A zero Tracer keeps each category's busy time: overlapping spans of one
// category count once, and Breakdown attributes the window from it.
func TestTracerBusyTime(t *testing.T) {
	var tr Tracer
	tr.Add(CatLoad, "a", "loader", ms(0), ms(10))
	tr.Add(CatLoad, "b", "loader", ms(20), ms(25))
	tr.Add(CatLoad, "c", "issuer", ms(22), ms(24)) // inside b
	tr.Add(CatExec, "k", "gpu", ms(5), ms(8))
	want := map[Category]time.Duration{CatExec: ms(3), CatLoad: ms(12), CatOther: ms(15)}
	if got := tr.Breakdown(ms(0), ms(30), DefaultPriority()); !maps.Equal(got, want) {
		t.Fatalf("Breakdown = %v, want %v", got, want)
	}
}

func TestAddPanicsOnNegativeSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tr Tracer
	tr.Add(CatLoad, "bad", "x", ms(5), ms(4))
}

// spanSink is a SpanObserver that collects what it is sent.
type spanSink []Span

func (s *spanSink) ObserveSpan(sp Span) { *s = append(*s, sp) }

// The zero Tracer keeps the busy time of every span; a forwarding tracer
// keeps none. Both send every span to the observer, degenerate ones
// (End == Start) included.
func TestTracerKeepsOrForwards(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Tracer
		want map[Category]time.Duration
	}{
		{"zero", &Tracer{}, map[Category]time.Duration{CatLoad: ms(10), CatOther: ms(2)}},
		{"forwarding", NewForwardingTracer(), map[Category]time.Duration{CatOther: ms(12)}},
	} {
		var sink spanSink
		tc.tr.SetObserver(&sink)
		tc.tr.Add(CatLoad, "a", "loader", ms(0), ms(10))
		tc.tr.Add(CatSync, "mark", "main", ms(3), ms(3))
		if len(sink) != 2 || sink[1].Name != "mark" {
			t.Errorf("%s: observer got %d spans, want 2", tc.name, len(sink))
		}
		if got := tc.tr.Breakdown(ms(0), ms(12), DefaultPriority()); !maps.Equal(got, tc.want) {
			t.Errorf("%s: Breakdown = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// AddNamed sends the observer prefix+name with a copy of its attributes.
// Without an observer it builds neither: a forwarding tracer's span, and a
// zero tracer's once its category has room, allocate nothing. A backwards
// span still panics.
func TestAddNamed(t *testing.T) {
	attr := Attr{Key: "solution", Value: "s0"}
	var sink spanSink
	fwd := NewForwardingTracer()
	fwd.SetObserver(&sink)
	fwd.AddNamed(CatLaunch, "issue:", "conv1", "issuer", ms(1), ms(2), attr)
	want := Span{Cat: CatLaunch, Name: "issue:conv1", Thread: "issuer", Start: ms(1), End: ms(2), Attrs: []Attr{attr}}
	if got := sink[0]; got.Name != want.Name || got.Thread != want.Thread || got.End != want.End || len(got.Attrs) != 1 || got.Attrs[0] != attr {
		t.Fatalf("span = %+v, want %+v", got, want)
	}

	name := strings.Repeat("x", 40)
	for _, tc := range []struct {
		name string
		tr   *Tracer
	}{
		{"forwarding", NewForwardingTracer()},
		{"zero", &Tracer{}},
	} {
		// Back-to-back spans, as a busy thread records them, extend the
		// category's last interval once the first has made room.
		at := ms(0)
		tc.tr.AddNamed(CatOverhead, "getsub:", name, "loader", at, at+ms(1), attr)
		if n := testing.AllocsPerRun(100, func() {
			at += ms(1)
			tc.tr.AddNamed(CatOverhead, "getsub:", name, "loader", at, at+ms(1), attr)
		}); n != 0 {
			t.Fatalf("%s: AddNamed with no observer allocated %v times", tc.name, n)
		}
	}
	drop := NewForwardingTracer()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "getsub:"+name) {
			t.Fatalf("recover() = %v, want a panic naming the span", r)
		}
	}()
	drop.AddNamed(CatOverhead, "getsub:", name, "loader", ms(5), ms(4))
}

func TestBreakdownExclusiveAttribution(t *testing.T) {
	spans := []Span{
		{Cat: CatLoad, Start: ms(0), End: ms(10)},
		{Cat: CatExec, Start: ms(5), End: ms(8)}, // overlaps load; exec wins
		{Cat: CatParse, Start: ms(12), End: ms(14)},
	}
	bd := Breakdown(spans, ms(0), ms(20), DefaultPriority())
	if bd[CatExec] != ms(3) {
		t.Fatalf("exec = %v", bd[CatExec])
	}
	if bd[CatLoad] != ms(7) {
		t.Fatalf("load = %v (must exclude exec overlap)", bd[CatLoad])
	}
	if bd[CatParse] != ms(2) {
		t.Fatalf("parse = %v", bd[CatParse])
	}
	if bd[CatOther] != ms(8) {
		t.Fatalf("other = %v", bd[CatOther])
	}
}

func TestBreakdownClipsToWindow(t *testing.T) {
	spans := []Span{{Cat: CatLoad, Start: ms(0), End: ms(100)}}
	bd := Breakdown(spans, ms(10), ms(20), DefaultPriority())
	if bd[CatLoad] != ms(10) {
		t.Fatalf("clipped load = %v", bd[CatLoad])
	}
}

func TestBreakdownEmptyWindow(t *testing.T) {
	bd := Breakdown(nil, ms(5), ms(5), DefaultPriority())
	if len(bd) != 0 {
		t.Fatalf("expected empty breakdown, got %v", bd)
	}
}

// Property: breakdown values always sum exactly to the window length.
func TestBreakdownConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cats := []Category{CatParse, CatLoad, CatExec, CatCopy, CatOverhead}
		var spans []Span
		for i := 0; i < rng.Intn(20); i++ {
			start := ms(rng.Intn(100))
			spans = append(spans, Span{
				Cat:   cats[rng.Intn(len(cats))],
				Start: start,
				End:   start + ms(rng.Intn(30)),
			})
		}
		t0 := ms(rng.Intn(50))
		t1 := t0 + ms(rng.Intn(100)+1)
		bd := Breakdown(spans, t0, t1, DefaultPriority())
		var sum time.Duration
		for _, v := range bd {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == t1-t0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	r := Report{
		Total: ms(100), GPUBusy: ms(25),
		ReuseQueries: 10, ReuseHits: 7, Lookups: 9,
		Breakdown: map[Category]time.Duration{CatLoad: ms(40)},
	}
	if r.Utilization() != 0.25 {
		t.Fatalf("utilization = %v", r.Utilization())
	}
	if r.HitRate() != 0.7 {
		t.Fatalf("hit rate = %v", r.HitRate())
	}
	if got := r.LookupsPerHit(); got < 1.28 || got > 1.29 {
		t.Fatalf("lookups/hit = %v", got)
	}
	if r.Share(CatLoad) != 0.4 {
		t.Fatalf("share = %v", r.Share(CatLoad))
	}
	empty := Report{}
	if empty.Utilization() != 0 || empty.HitRate() != 0 || empty.LookupsPerHit() != 0 || empty.Share(CatLoad) != 0 {
		t.Fatal("zero report must yield zero metrics")
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := FormatTable([]string{"model", "speedup"}, [][]string{
		{"alex", "5.62x"},
		{"efficientnet", "7.1x"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatal("separator length mismatch")
	}
	if !strings.Contains(lines[2], "alex") || !strings.Contains(lines[3], "efficientnet") {
		t.Fatalf("rows missing:\n%s", out)
	}
	if strings.Index(lines[2], "5.62x") != strings.Index(lines[3], "7.1x") {
		t.Fatal("columns not aligned")
	}
}

func TestFormatCSV(t *testing.T) {
	out := FormatCSV([]string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	want := "a,b\n1,2\n3,4\n"
	if out != want {
		t.Fatalf("csv = %q", out)
	}
}

func TestTimelineRendersLanes(t *testing.T) {
	spans := []Span{
		{Cat: CatParse, Start: ms(0), End: ms(10)},
		{Cat: CatLoad, Start: ms(5), End: ms(40)},
		{Cat: CatExec, Start: ms(30), End: ms(50)},
	}
	out := Timeline(spans, ms(0), ms(50), 50)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // 3 lanes + axis
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "parse") || !strings.HasPrefix(lines[1], "load") || !strings.HasPrefix(lines[2], "exec") {
		t.Fatalf("lane order wrong:\n%s", out)
	}
	// The parse lane is active only in the first fifth of the window.
	parseRow := lines[0][strings.Index(lines[0], "|")+1:]
	if !strings.Contains(parseRow[:12], "#") || strings.Contains(parseRow[20:40], "#") {
		t.Fatalf("parse lane shape wrong: %q", parseRow)
	}
	if !strings.Contains(out, "50.0ms") {
		t.Fatalf("axis label missing:\n%s", out)
	}
}

func TestTimelineEmptyAndClipped(t *testing.T) {
	if Timeline(nil, ms(5), ms(5), 40) != "" {
		t.Fatal("degenerate window must render empty")
	}
	spans := []Span{{Cat: CatLoad, Start: ms(0), End: ms(100)}}
	out := Timeline(spans, ms(40), ms(60), 5)
	if !strings.Contains(out, "#####") {
		t.Fatalf("clipped span should fill the lane: %s", out)
	}
}
