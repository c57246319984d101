package trace

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"pask/internal/metrics"
)

// PromWriter builds a Prometheus text-format (version 0.0.4) exposition:
// one # HELP / # TYPE header per metric followed by its samples. Callers add
// metrics in any order; Flush renders them sorted by metric name and label
// signature so output is deterministic.
type PromWriter struct {
	metrics map[string]*promMetric
	names   []string
}

type promMetric struct {
	help, typ string
	samples   []promSample
}

type promSample struct {
	labels string // pre-rendered {k="v",...} or ""
	value  float64
}

// NewPromWriter returns an empty exposition builder.
func NewPromWriter() *PromWriter {
	return &PromWriter{metrics: make(map[string]*promMetric)}
}

// Declare registers a metric's HELP and TYPE ("gauge" or "counter"). It must
// be called before Sample for that name; repeat calls are no-ops.
func (p *PromWriter) Declare(name, typ, help string) {
	if _, ok := p.metrics[name]; ok {
		return
	}
	p.metrics[name] = &promMetric{help: help, typ: typ}
	p.names = append(p.names, name)
}

// Sample adds one sample. Labels are key/value pairs; values are escaped.
func (p *PromWriter) Sample(name string, value float64, labels ...[2]string) {
	m, ok := p.metrics[name]
	if !ok {
		m = &promMetric{typ: "gauge"}
		p.metrics[name] = m
		p.names = append(p.names, name)
	}
	var ls string
	if len(labels) > 0 {
		var buf [128]byte
		b := append(buf[:0], '{')
		for i, kv := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, kv[0]...)
			b = append(b, `="`...)
			b = appendLabelValue(b, kv[1])
			b = append(b, '"')
		}
		ls = string(append(b, '}'))
	}
	m.samples = append(m.samples, promSample{labels: ls, value: value})
}

// appendLabelValue appends v with the text-format label escapes: backslash,
// double quote and newline.
func appendLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// Flush writes the exposition to w in one write. It sorts the writer's
// metrics and samples in place; later Samples still flush in order.
func (p *PromWriter) Flush(w io.Writer) error {
	slices.Sort(p.names)
	var b []byte
	for _, name := range p.names {
		m := p.metrics[name]
		if m.help != "" {
			b = append(b, "# HELP "...)
			b = append(b, name...)
			b = append(b, ' ')
			b = append(b, m.help...)
			b = append(b, '\n')
		}
		typ := m.typ
		if typ == "" {
			typ = "gauge"
		}
		b = append(b, "# TYPE "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, typ...)
		b = append(b, '\n')
		slices.SortStableFunc(m.samples, func(x, y promSample) int { return strings.Compare(x.labels, y.labels) })
		for _, s := range m.samples {
			b = append(b, name...)
			b = append(b, s.labels...)
			b = append(b, ' ')
			b = appendPromValue(b, s.value)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// appendPromValue appends v as fmt's %d of int64(v) when that converts back
// to v, else as fmt's %g.
func appendPromValue(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// sanitizeMetricName maps a counter-series name onto the Prometheus metric
// charset [a-zA-Z0-9_:].
func sanitizeMetricName(name string) string {
	// Colons, though syntactically legal, are reserved by convention for
	// recording rules — counter series like "breaker_state:res" flatten to
	// underscores instead.
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// AppendPrometheus adds a snapshot of the recording to an exposition in
// Prometheus text format: per-track/category span totals and counts, every
// counter series' last value, and instant-event totals. Servers merge
// several recorders plus their own gauges into one /metrics page this way.
func (r *Recorder) AppendPrometheus(p *PromWriter) {
	if r == nil {
		return
	}
	p.Declare("pask_span_seconds_total", "counter", "Total virtual-time seconds spent in spans, by track and category.")
	p.Declare("pask_spans_total", "counter", "Number of recorded spans, by track and category.")
	secs := map[trackKey]time.Duration{}
	counts := map[trackKey]int{}
	evCounts := map[trackKey]int{}
	type last struct {
		name  string
		value float64
	}
	var lasts []last
	r.mu.Lock()
	for i := range r.spans {
		s := &r.spans[i]
		k := trackKey{s.Thread, string(s.Cat)}
		secs[k] += s.End - s.Start
		counts[k]++
	}
	for i := range r.instants {
		evCounts[trackKey{r.instants[i].Track, r.instants[i].Name}]++
	}
	for _, name := range r.names {
		if samples := r.counters[name].Samples; len(samples) > 0 {
			lasts = append(lasts, last{name, samples[len(samples)-1].Value})
		}
	}
	r.mu.Unlock()

	for _, k := range sortedTrackKeys(secs) {
		labels := [][2]string{{"track", k.track}, {"category", k.name}}
		p.Sample("pask_span_seconds_total", secs[k].Seconds(), labels...)
		p.Sample("pask_spans_total", float64(counts[k]), labels...)
	}

	p.Declare("pask_events_total", "counter", "Number of recorded instant events, by track and name.")
	for _, k := range sortedTrackKeys(evCounts) {
		p.Sample("pask_events_total", float64(evCounts[k]), [2]string{"track", k.track}, [2]string{"name", k.name})
	}
	for _, c := range lasts {
		name := "pask_" + sanitizeMetricName(c.name)
		p.Declare(name, "gauge", "Last sampled value of the "+c.name+" series.")
		p.Sample(name, c.value)
	}
}

// trackKey groups spans by track and category, or instants by track and
// name.
type trackKey struct{ track, name string }

// sortedTrackKeys returns m's keys ordered by track, then name.
func sortedTrackKeys[V any](m map[trackKey]V) []trackKey {
	keys := make([]trackKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b trackKey) int {
		return cmp.Or(strings.Compare(a.track, b.track), strings.Compare(a.name, b.name))
	})
	return keys
}

// ReportMetrics adds one run Report's headline numbers to an exposition,
// labelled by scheme and model. Used by the HTTP /metrics endpoint to expose
// load counts, reuse hits and bytes for every run the server has executed.
func ReportMetrics(p *PromWriter, rep *metrics.Report) {
	if rep == nil {
		return
	}
	labels := [][2]string{{"scheme", rep.Scheme}, {"model", rep.Model}}
	p.Declare("pask_run_total_seconds", "gauge", "End-to-end virtual wall time of the most recent run.")
	p.Sample("pask_run_total_seconds", rep.Total.Seconds(), labels...)
	p.Declare("pask_run_gpu_busy_seconds", "gauge", "Union of GPU-active intervals in the most recent run.")
	p.Sample("pask_run_gpu_busy_seconds", rep.GPUBusy.Seconds(), labels...)
	p.Declare("pask_run_loads", "gauge", "Code objects loaded in the most recent run.")
	p.Sample("pask_run_loads", float64(rep.Loads), labels...)
	p.Declare("pask_run_loaded_bytes", "gauge", "Container bytes loaded in the most recent run.")
	p.Sample("pask_run_loaded_bytes", float64(rep.LoadedBytes), labels...)
	p.Declare("pask_run_reuse_queries", "gauge", "Cache queries (GetSubSolution calls) in the most recent run.")
	p.Sample("pask_run_reuse_queries", float64(rep.ReuseQueries), labels...)
	p.Declare("pask_run_reuse_hits", "gauge", "Cache queries answered with a resident instance.")
	p.Sample("pask_run_reuse_hits", float64(rep.ReuseHits), labels...)
	p.Declare("pask_run_skipped_loads", "gauge", "Loads avoided via selective reuse.")
	p.Sample("pask_run_skipped_loads", float64(rep.SkippedLoads), labels...)
	if rep.WarmupEntries > 0 {
		// Warmup gauges appear only for profile-warmed runs, keeping the
		// exposition byte-identical for everything else.
		p.Declare("pask_run_warmup_prefetched", "gauge", "Objects made resident by manifest replay before first use.")
		p.Sample("pask_run_warmup_prefetched", float64(rep.WarmupPrefetched), labels...)
		p.Declare("pask_run_warmup_hits", "gauge", "Objects the run used that the warmup replay covered.")
		p.Sample("pask_run_warmup_hits", float64(rep.WarmupHits), labels...)
		p.Declare("pask_run_warmup_misses", "gauge", "Objects the run used that the warmup replay did not cover.")
		p.Sample("pask_run_warmup_misses", float64(rep.WarmupMisses), labels...)
		p.Declare("pask_run_warmup_wasted", "gauge", "Objects the warmup replay loaded that the run never used.")
		p.Sample("pask_run_warmup_wasted", float64(rep.WarmupWasted), labels...)
		p.Declare("pask_run_warmup_stale_entries", "gauge", "Manifest entries skipped for checksum mismatch or read error.")
		p.Sample("pask_run_warmup_stale_entries", float64(rep.WarmupStale), labels...)
	}
}
