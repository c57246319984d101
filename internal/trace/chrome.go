package trace

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"pask/internal/metrics"
)

// chromeEvent is one entry of the Chrome trace_event format. Timestamps and
// durations are microseconds; ph selects the event kind: "M" metadata, "X"
// complete span, "i" instant, "C" counter.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

const chromePid = 1

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// chromeChunk is how many bytes WriteChrome buffers before handing them to
// its writer, so memory stays constant whatever the trace size.
const chromeChunk = 32 << 10

// exactUsecLimit bounds the durations whose microsecond value appendUsec
// prints from integer nanoseconds. Below 2^43 µs a float64 is spaced finer
// than 0.001, so the shortest decimal that round-trips usec(d) is d/1000
// written out with its trailing zeros trimmed.
const exactUsecLimit = time.Duration(1<<43) * time.Microsecond

// chromeRef is one span or instant in the export's sort order: by ts, then
// tid, then name, then recording position (spans before instants).
type chromeRef struct {
	ts   float64
	name string
	tid  int
	i    int // spans[i] when i < len(spans), else instants[i-len(spans)]
}

// WriteChrome exports the recording as Chrome trace_event JSON, loadable in
// chrome://tracing and https://ui.perfetto.dev. The output is deterministic
// for a given recording: tracks are ordered lexicographically and events are
// sorted by timestamp with stable tie-breaks, so golden files are meaningful.
//
// The document is appended field by field in the layout encoding/json
// produces for chromeFile under SetIndent("", " "), byte for byte, and
// streamed to w in chromeChunk pieces. A non-finite counter value is an
// error, returned before anything is written.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		return errors.New("trace: nil recorder")
	}
	// Every slice the recorder keeps is append-only, so the prefixes seen
	// under the lock stay valid to read after it is released.
	r.mu.Lock()
	spans := r.spans
	instants := r.instants
	tracks := slices.Clone(r.tracks)
	counters := make([]Counter, len(r.names))
	for i, name := range r.names {
		counters[i] = Counter{Name: name, Samples: r.counters[name].Samples}
	}
	r.mu.Unlock()

	for _, c := range counters {
		for _, s := range c.Samples {
			if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
				_, err := json.Marshal(s.Value) // encoding/json's error for the value
				return err
			}
		}
	}

	slices.Sort(tracks)
	tid := make(map[string]int, len(tracks))
	for i, name := range tracks {
		tid[name] = i + 1
	}
	refs := make([]chromeRef, 0, len(spans)+len(instants))
	for i, s := range spans {
		refs = append(refs, chromeRef{ts: usec(s.Start), name: s.Name, tid: tid[s.Thread], i: i})
	}
	for i, in := range instants {
		refs = append(refs, chromeRef{ts: usec(in.At), name: in.Name, tid: tid[in.Track], i: len(spans) + i})
	}
	slices.SortFunc(refs, func(a, b chromeRef) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		if a.tid != b.tid {
			return a.tid - b.tid
		}
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return a.i - b.i
	})

	cw := chromeWriter{w: w, buf: make([]byte, 0, chromeChunk+chromeChunk/4)}
	cw.buf = append(cw.buf, "{\n \"displayTimeUnit\": \"ms\",\n \"traceEvents\": ["...)
	cw.meta("process_name", 0)
	cw.buf = appendStringArg(cw.buf, "name", "pask")
	for _, name := range tracks {
		cw.meta("thread_name", tid[name])
		cw.buf = appendStringArg(cw.buf, "name", name)
		cw.meta("thread_sort_index", tid[name])
		cw.buf = append(cw.buf, ",\n   \"args\": {\n    \"sort_index\": "...)
		cw.buf = strconv.AppendInt(cw.buf, int64(tid[name]), 10)
		cw.buf = append(cw.buf, "\n   }"...)
	}
	var scratch []metrics.Attr
	for _, ref := range refs {
		if cw.err != nil {
			return cw.err
		}
		if ref.i < len(spans) {
			s := &spans[ref.i]
			dur := s.End - s.Start
			cw.event(s.Name, "X", string(s.Cat), s.Start, &dur, ref.tid, "")
			cw.buf, scratch = appendAttrArgs(cw.buf, s.Attrs, scratch)
		} else {
			in := &instants[ref.i-len(spans)]
			cw.event(in.Name, "i", "", in.At, nil, ref.tid, "t")
			cw.buf, scratch = appendAttrArgs(cw.buf, in.Attrs, scratch)
		}
	}
	// Counter events last, grouped by series then time, so the numeric
	// tracks render under the thread tracks.
	for _, c := range counters {
		if cw.err != nil {
			return cw.err
		}
		for _, s := range c.Samples {
			cw.event(c.Name, "C", "", s.At, nil, 0, "")
			cw.buf = append(cw.buf, ",\n   \"args\": {\n    \"value\": "...)
			cw.buf = appendJSONFloat(cw.buf, s.Value)
			cw.buf = append(cw.buf, "\n   }"...)
		}
	}
	cw.buf = append(cw.buf, "\n  }\n ]\n}\n"...)
	cw.flush()
	return cw.err
}

// chromeWriter appends the indented events of one export to buf and hands
// buf to w each time it fills past chromeChunk. After a failed write, err
// holds the failure and nothing more is written.
type chromeWriter struct {
	w      io.Writer
	buf    []byte
	err    error
	events int
}

func (cw *chromeWriter) flush() {
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

// event closes the previous event and appends this one's fields up to tid,
// leaving the object open for its args. An empty cat or s is omitted, as is
// a nil dur.
func (cw *chromeWriter) event(name, ph, cat string, ts time.Duration, dur *time.Duration, tid int, s string) {
	if cw.events > 0 {
		cw.buf = append(cw.buf, "\n  },"...)
		if len(cw.buf) >= chromeChunk {
			cw.flush()
		}
	}
	cw.events++
	b := append(cw.buf, "\n  {\n   \"name\": "...)
	b = appendJSONString(b, name)
	b = append(b, ",\n   \"ph\": \""...)
	b = append(b, ph...)
	b = append(b, '"', ',')
	if cat != "" {
		b = append(b, "\n   \"cat\": "...)
		b = appendJSONString(b, cat)
		b = append(b, ',')
	}
	b = append(b, "\n   \"ts\": "...)
	b = appendUsec(b, ts)
	if dur != nil {
		b = append(b, ",\n   \"dur\": "...)
		b = appendUsec(b, *dur)
	}
	b = append(b, ",\n   \"pid\": "...)
	b = strconv.AppendInt(b, chromePid, 10)
	b = append(b, ",\n   \"tid\": "...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if s != "" {
		b = append(b, ",\n   \"s\": "...)
		b = appendJSONString(b, s)
	}
	cw.buf = b
}

// meta appends a metadata event at ts 0.
func (cw *chromeWriter) meta(name string, tid int) {
	cw.event(name, "M", "", 0, nil, tid, "")
}

// appendStringArg appends an args object holding one string.
func appendStringArg(b []byte, key, value string) []byte {
	b = append(b, ",\n   \"args\": {\n    "...)
	b = appendJSONString(b, key)
	b = append(b, ": "...)
	b = appendJSONString(b, value)
	return append(b, "\n   }"...)
}

// appendAttrArgs appends attrs as an args object with sorted keys, a
// repeated key keeping its last value, as a map[string]any would; no attrs
// means no args. scratch is reused across calls to sort in.
func appendAttrArgs(b []byte, attrs, scratch []metrics.Attr) ([]byte, []metrics.Attr) {
	if len(attrs) == 0 {
		return b, scratch
	}
	sorted := attrs
	if len(attrs) > 1 {
		// Stable insertion sort: attrs are few, and equal keys keep their
		// recording order so the last one wins below.
		scratch = append(scratch[:0], attrs...)
		for i := 1; i < len(scratch); i++ {
			for j := i; j > 0 && scratch[j-1].Key > scratch[j].Key; j-- {
				scratch[j-1], scratch[j] = scratch[j], scratch[j-1]
			}
		}
		sorted = scratch
	}
	sep := ",\n   \"args\": {\n    "
	for i, a := range sorted {
		if i+1 < len(sorted) && sorted[i+1].Key == a.Key {
			continue
		}
		b = append(b, sep...)
		sep = ",\n    "
		b = appendJSONString(b, a.Key)
		b = append(b, ": "...)
		b = appendJSONString(b, a.Value)
	}
	return append(b, "\n   }"...), scratch
}

// appendJSONString appends s as a JSON string the way encoding/json writes
// it: plain ASCII verbatim, anything needing an escape (quotes, control
// bytes, HTML-sensitive <>&, non-ASCII) through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendUsec appends d in microseconds as encoding/json writes usec(d). Below
// exactUsecLimit that is the integer part and up to three trimmed decimals
// of d/1000, printed without float formatting.
func appendUsec(b []byte, d time.Duration) []byte {
	if d <= -exactUsecLimit || d >= exactUsecLimit {
		return appendJSONFloat(b, usec(d))
	}
	if d < 0 {
		b = append(b, '-')
		d = -d
	}
	b = strconv.AppendInt(b, int64(d/time.Microsecond), 10)
	frac := int(d % time.Microsecond)
	if frac == 0 {
		return b
	}
	b = append(b, '.', byte('0'+frac/100))
	if frac%100 != 0 {
		b = append(b, byte('0'+frac/10%10))
		if frac%10 != 0 {
			b = append(b, byte('0'+frac%10))
		}
	}
	return b
}

// appendJSONFloat appends a finite v with encoding/json's float64 rule:
// shortest round-trip digits, plain notation except below 1e-6 and from
// 1e21 on, where the exponent loses its leading zero.
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ChromeSummary reports what a validated trace contains.
type ChromeSummary struct {
	Events   int      // total trace events
	Spans    int      // "X" complete events
	Counters int      // distinct counter series
	Tracks   []string // named threads, in tid order
	MaxTs    float64  // latest timestamp seen (microseconds)
}

// ValidateChrome parses Chrome trace_event JSON produced by WriteChrome and
// checks the structural invariants golden consumers rely on: valid JSON, a
// non-empty event list, named threads, non-negative durations, and
// monotonically non-decreasing timestamps per event kind.
func ValidateChrome(data []byte) (ChromeSummary, error) {
	var sum ChromeSummary
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return sum, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return sum, errors.New("trace: no traceEvents")
	}
	sum.Events = len(f.TraceEvents)
	counterNames := map[string]bool{}
	lastTs := map[string]float64{} // per-ph monotonicity
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				name, _ := ev.Args["name"].(string)
				if name == "" {
					return sum, fmt.Errorf("trace: event %d: thread_name without a name", i)
				}
				sum.Tracks = append(sum.Tracks, name)
			}
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return sum, fmt.Errorf("trace: event %d (%q): missing or negative dur", i, ev.Name)
			}
			if ev.Ts < 0 {
				return sum, fmt.Errorf("trace: event %d (%q): negative ts", i, ev.Name)
			}
			if ev.Ts < lastTs["X"] {
				return sum, fmt.Errorf("trace: event %d (%q): ts %v before previous span ts %v", i, ev.Name, ev.Ts, lastTs["X"])
			}
			lastTs["X"] = ev.Ts
			sum.Spans++
		case "i":
			if ev.Ts < lastTs["i"] {
				return sum, fmt.Errorf("trace: event %d (%q): instant ts regressed", i, ev.Name)
			}
			lastTs["i"] = ev.Ts
		case "C":
			if _, ok := ev.Args["value"]; !ok {
				return sum, fmt.Errorf("trace: event %d (%q): counter without value", i, ev.Name)
			}
			counterNames[ev.Name] = true
		default:
			return sum, fmt.Errorf("trace: event %d (%q): unknown ph %q", i, ev.Name, ev.Ph)
		}
		if ev.Ts > sum.MaxTs {
			sum.MaxTs = ev.Ts
		}
	}
	if len(sum.Tracks) == 0 {
		return sum, errors.New("trace: no thread_name metadata")
	}
	sum.Counters = len(counterNames)
	return sum, nil
}
