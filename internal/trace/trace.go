// Package trace is the observability layer of the simulated stack: a
// virtual-time-aware recorder that turns a run's activity into an
// inspectable timeline instead of three scalar columns — the paper's §III-A
// three-thread pipeline rendered as parallel tracks, per Fig 5.
//
// A Recorder organizes events hierarchically: per-thread *tracks* (the
// parser / loader / issuer host threads, the GPU streams, the serving loop)
// carry *spans* (timed activities with key/value attributes: pattern,
// solution, tenant, byte counts) and *instants* (zero-duration marks such as
// evictions or the parse milestone), while *counter series* sample scalar
// state (resident bytes, cache size, queue depths) at event granularity.
//
// Recording is cheap and race-safe: all mutators take one mutex, a nil
// *Recorder ignores every call (so instrumentation sites need no guards),
// and counter series collapse runs of identical values. Two exporters turn
// a recording into standard tooling formats: WriteChrome emits Chrome
// trace_event JSON loadable in chrome://tracing and Perfetto, and
// AppendPrometheus adds a Prometheus text-format snapshot to a PromWriter.
//
// Paper anchor: the §III-A three-thread pipeline rendered as a timeline, per Fig 5.
package trace

import (
	"sync"
	"time"

	"pask/internal/metrics"
)

// Instant is a zero-duration mark on a track (an eviction, the parse
// milestone, a device reset).
type Instant struct {
	Track string
	Name  string
	At    time.Duration
	Attrs []metrics.Attr
}

// Sample is one counter observation.
type Sample struct {
	At    time.Duration
	Value float64
}

// Counter is one named scalar series sampled at event granularity.
type Counter struct {
	Name    string
	Samples []Sample
}

// Recorder accumulates one run's (or one server's) observable activity.
// The zero value is ready to use; a nil *Recorder ignores every call.
type Recorder struct {
	mu       sync.Mutex
	spans    []metrics.Span
	instants []Instant
	tracks   []string
	trackSet map[string]bool
	counters map[string]*Counter
	names    []string // counter names in first-seen order
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

func (r *Recorder) noteTrack(name string) {
	if name == "" {
		return
	}
	if r.trackSet == nil {
		r.trackSet = make(map[string]bool)
	}
	if !r.trackSet[name] {
		r.trackSet[name] = true
		r.tracks = append(r.tracks, name)
	}
}

// ObserveSpan implements metrics.SpanObserver: every span a wired Tracer
// records lands here, its Thread becoming the track.
func (r *Recorder) ObserveSpan(s metrics.Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteTrack(s.Thread)
	r.spans = append(r.spans, s)
}

// Span records a timed activity directly (instrumentation sites that do not
// go through a metrics.Tracer).
func (r *Recorder) Span(track string, cat metrics.Category, name string, start, end time.Duration, attrs ...metrics.Attr) {
	if r == nil {
		return
	}
	r.ObserveSpan(metrics.Span{Cat: cat, Name: name, Thread: track, Start: start, End: end, Attrs: attrs})
}

// Instant records a zero-duration mark on a track.
func (r *Recorder) Instant(track, name string, at time.Duration, attrs ...metrics.Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteTrack(track)
	r.instants = append(r.instants, Instant{Track: track, Name: name, At: at, Attrs: attrs})
}

// Count records a sample of the named scalar series. Consecutive samples
// with an unchanged value are collapsed: the series keeps only the edges, so
// high-frequency sites (the event loop, per-decision cache sizes) stay
// cheap.
func (r *Recorder) Count(name string, at time.Duration, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{Name: name}
		r.counters[name] = c
		r.names = append(r.names, name)
	}
	if n := len(c.Samples); n > 0 && c.Samples[n-1].Value == value {
		return
	}
	c.Samples = append(c.Samples, Sample{At: at, Value: value})
}

// RegistryEvent implements the backend registry observer: evictions, coalesced
// waits and negative-cache hits arrive as instants on the "registry" track.
func (r *Recorder) RegistryEvent(kind, path string, at time.Duration) {
	r.Instant("registry", kind, at, metrics.Attr{Key: "path", Value: path})
}

// RegistrySample implements the backend registry observer's counter side.
func (r *Recorder) RegistrySample(name string, at time.Duration, value float64) {
	r.Count(name, at, value)
}

// Spans returns a copy of the recorded spans in recording order.
func (r *Recorder) Spans() []metrics.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]metrics.Span, len(r.spans))
	copy(out, r.spans)
	return out
}
