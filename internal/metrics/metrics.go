// Package metrics collects virtual-time spans from a model run and turns
// them into the quantities the paper reports: GPU utilization (Fig 6b) and
// exclusive phase breakdowns (Fig 1b, Fig 7). Spans may overlap freely (the
// whole point of PASK is overlapping loading with execution); Breakdown
// attributes every instant of wall time to exactly one category by priority,
// from the per-category busy time a Busy keeps.
//
// Paper anchor: the Fig 1b / Fig 7 phase breakdowns and Fig 6b utilization.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Category labels one kind of activity.
type Category string

const (
	CatParse     Category = "parse"    // model deserialization
	CatLoad      Category = "load"     // code-object loading
	CatLaunch    Category = "launch"   // kernel submission
	CatExec      Category = "exec"     // GPU computing
	CatCopy      Category = "copy"     // host<->device parameter transfer
	CatOverhead  Category = "overhead" // PASK cache queries / applicability checks
	CatSync      Category = "sync"     // host-device synchronization
	CatTransform Category = "xform"    // layout interchange kernels
	CatRecovery  Category = "recovery" // fault handling: substitute search, ladder fallback
	CatOther     Category = "other"
)

// Attr is one key/value annotation on a span (pattern, solution, tenant,
// byte counts). Values are pre-rendered strings so recording stays cheap.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed activity.
type Span struct {
	Cat    Category
	Name   string
	Start  time.Duration
	End    time.Duration
	Thread string
	Attrs  []Attr
}

// SpanObserver receives every span a Tracer records, as it is recorded. The
// trace recorder implements it to build exportable timelines; implementations
// must tolerate concurrent calls when tracers from different goroutines share
// one observer.
type SpanObserver interface {
	ObserveSpan(Span)
}

// Tracer records spans during a run. Every span goes to the observer, when
// one is attached. Whether the tracer also keeps each category's busy time
// is fixed when it is made: the zero value keeps it in a Busy that
// Breakdown reads; a tracer from NewForwardingTracer keeps nothing. Neither
// keeps the spans themselves: a caller that needs them attaches an observer
// (the trace package's Recorder keeps every span it observes).
//
// Single-run processes keep busy time, because their scheme breakdown and
// cold/hot split are computed from it (experiments' NewProcess). Serving
// processes in a shared environment keep none (NewProcessIn, AttachIn): they
// live for a whole trace, nothing reads their breakdown, and their spans
// reach a trace recorder through the observer alone.
type Tracer struct {
	busy        Busy
	obs         SpanObserver
	forwardOnly bool
}

// NewForwardingTracer returns a tracer that keeps no busy time: each span
// goes to the observer, if any, and nowhere else, so Breakdown attributes
// every instant to CatOther.
func NewForwardingTracer() *Tracer { return &Tracer{forwardOnly: true} }

// SetObserver forwards every subsequently recorded span to o (nil detaches).
func (t *Tracer) SetObserver(o SpanObserver) { t.obs = o }

// Observed reports whether an observer is attached: a caller that builds
// attributes only the observer reads can skip them when it is false.
func (t *Tracer) Observed() bool { return t.obs != nil }

// Add records a span built from its arguments, with no attributes. A
// degenerate span (End == Start) is recorded like any other: it marks an
// event and contributes no time. End < Start panics, as in AddSpan.
func (t *Tracer) Add(cat Category, name, thread string, start, end time.Duration) {
	t.AddSpan(Span{Cat: cat, Name: name, Start: start, End: end, Thread: thread})
}

// AddNamed records a span named prefix+name with a copy of attrs. It builds
// the name and the copy only for the observer: with none attached, the span
// costs its busy time and no string. End < Start panics, as in AddSpan.
func (t *Tracer) AddNamed(cat Category, prefix, name, thread string, start, end time.Duration, attrs ...Attr) {
	if end < start {
		panicBackwards(prefix+name, start, end)
	}
	if !t.forwardOnly {
		t.busy.Add(cat, start, end)
	}
	if t.obs != nil {
		t.obs.ObserveSpan(Span{Cat: cat, Name: prefix + name, Thread: thread, Start: start, End: end, Attrs: slices.Clone(attrs)})
	}
}

// AddSpan records a fully-formed span, attributes included: its time joins
// the busy time unless the tracer forwards only, then the span goes to the
// observer. A span that ends before it starts panics.
func (t *Tracer) AddSpan(s Span) {
	if s.End < s.Start {
		panicBackwards(s.Name, s.Start, s.End)
	}
	if !t.forwardOnly {
		t.busy.Add(s.Cat, s.Start, s.End)
	}
	if t.obs != nil {
		t.obs.ObserveSpan(s)
	}
}

// panicBackwards reports a span that ends before it starts.
func panicBackwards(name string, start, end time.Duration) {
	panic(fmt.Sprintf("metrics: span %q ends (%v) before it starts (%v)", name, end, start))
}

// Breakdown attributes [t0, t1] over the recorded spans' busy time, as
// Busy.Breakdown does.
func (t *Tracer) Breakdown(t0, t1 time.Duration, priority []Category) map[Category]time.Duration {
	return t.busy.Breakdown(t0, t1, priority)
}

// DefaultPriority is the attribution order used for the paper's breakdowns:
// work that keeps the GPU busy first (compute, then DMA), then loading, then
// the host bookkeeping categories.
func DefaultPriority() []Category {
	return []Category{CatExec, CatCopy, CatLoad, CatTransform, CatOverhead, CatRecovery, CatLaunch, CatParse, CatSync}
}

// Report summarizes one model run under one scheme. It is the public
// pask.Report as well.
type Report struct {
	Scheme string
	Model  string
	Batch  int

	// Total is the end-to-end cold-start wall time (virtual).
	Total time.Duration
	// GPUBusy is the union of GPU-active intervals inside the run.
	GPUBusy time.Duration

	Loads       int   // code objects loaded during the run
	LoadedBytes int64 // container bytes read and relocated

	// PASK reuse statistics (zero except under PaSK and PaSK-R).
	ReuseQueries int // GetSubSolution invocations
	ReuseHits    int // queries answered with a cached instance
	Lookups      int // IsApplicable evaluations inside queries
	Milestone    int // index of the milestone layer
	SkippedLoads int // loads avoided via reuse

	// PressureReuse counts layers served by pressure-forced substitutes —
	// reuse taken only because the serving layer's brownout controller (or
	// pask.WithPressure) raised the level above nominal.
	PressureReuse int

	// Profile-warmup statistics (zero unless the run replayed a readable
	// manifest).
	WarmupEntries    int // manifest entries the prefetcher considered
	WarmupPrefetched int // objects made resident by replay (paid + coalesced)
	WarmupHits       int // objects the run used that replay covered
	WarmupMisses     int // objects the run used that replay did not cover
	WarmupWasted     int // objects replay loaded that the run never used
	WarmupStale      int // entries skipped on checksum mismatch or read error

	// Breakdown attributes every instant of the run to one Category, so
	// its values sum to Total. Both the Cat* constants and string literals
	// index it.
	Breakdown map[Category]time.Duration
}

// Seconds returns the total wall time in seconds.
func (r *Report) Seconds() float64 { return r.Total.Seconds() }

// Utilization returns the GPU-active fraction of the run (paper Fig 6b).
func (r *Report) Utilization() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.GPUBusy) / float64(r.Total)
}

// HitRate returns the reuse-query hit fraction (paper Fig 9a).
func (r *Report) HitRate() float64 {
	if r.ReuseQueries == 0 {
		return 0
	}
	return float64(r.ReuseHits) / float64(r.ReuseQueries)
}

// LookupsPerHit returns the average applicability checks per successful
// query (paper Fig 9b).
func (r *Report) LookupsPerHit() float64 {
	if r.ReuseHits == 0 {
		return 0
	}
	return float64(r.Lookups) / float64(r.ReuseHits)
}

// Share returns a category's fraction of total time in the breakdown.
func (r *Report) Share(cat Category) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Breakdown[cat]) / float64(r.Total)
}

// FormatTable renders rows as an aligned text table.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatCSV renders rows as comma-separated values with a header line.
func FormatCSV(headers []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(headers, ","))
	b.WriteByte('\n')
	for _, row := range rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
