package trace

import (
	"fmt"
	"io"
	"sort"
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
		parts := make([]string, len(labels))
		for i, kv := range labels {
			parts[i] = kv[0] + `="` + escapeLabel(kv[1]) + `"`
		}
		ls = "{" + strings.Join(parts, ",") + "}"
	}
	m.samples = append(m.samples, promSample{labels: ls, value: value})
}

// escapeLabel applies the text-format label escapes: backslash, double
// quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// Flush writes the exposition to w.
func (p *PromWriter) Flush(w io.Writer) error {
	names := make([]string, len(p.names))
	copy(names, p.names)
	sort.Strings(names)
	for _, name := range names {
		m := p.metrics[name]
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, m.help); err != nil {
				return err
			}
		}
		typ := m.typ
		if typ == "" {
			typ = "gauge"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		samples := make([]promSample, len(m.samples))
		copy(samples, m.samples)
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		for _, s := range samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatPromValue(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatPromValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
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
	type key struct{ track, cat string }
	secs := map[key]time.Duration{}
	counts := map[key]int{}
	for _, s := range r.Spans() {
		k := key{s.Thread, string(s.Cat)}
		secs[k] += s.End - s.Start
		counts[k]++
	}
	keys := make([]key, 0, len(secs))
	for k := range secs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].track != keys[j].track {
			return keys[i].track < keys[j].track
		}
		return keys[i].cat < keys[j].cat
	})
	for _, k := range keys {
		labels := [][2]string{{"track", k.track}, {"category", k.cat}}
		p.Sample("pask_span_seconds_total", secs[k].Seconds(), labels...)
		p.Sample("pask_spans_total", float64(counts[k]), labels...)
	}

	p.Declare("pask_events_total", "counter", "Number of recorded instant events, by track and name.")
	evCounts := map[key]int{}
	for _, in := range r.Instants() {
		evCounts[key{in.Track, in.Name}]++
	}
	evKeys := make([]key, 0, len(evCounts))
	for k := range evCounts {
		evKeys = append(evKeys, k)
	}
	sort.Slice(evKeys, func(i, j int) bool {
		if evKeys[i].track != evKeys[j].track {
			return evKeys[i].track < evKeys[j].track
		}
		return evKeys[i].cat < evKeys[j].cat
	})
	for _, k := range evKeys {
		p.Sample("pask_events_total", float64(evCounts[k]), [2]string{"track", k.track}, [2]string{"name", k.cat})
	}

	for _, c := range r.Counters() {
		if len(c.Samples) == 0 {
			continue
		}
		name := "pask_" + sanitizeMetricName(c.Name)
		p.Declare(name, "gauge", "Last sampled value of the "+c.Name+" series.")
		p.Sample(name, c.Samples[len(c.Samples)-1].Value)
	}
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
