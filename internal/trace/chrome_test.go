package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"pask/internal/metrics"
)

// writeChromeReference is the reflective exporter WriteChrome replaced, kept
// as the oracle the appender must match byte for byte: it builds a
// chromeEvent with an args map per event and lets encoding/json marshal and
// re-indent the whole document.
func writeChromeReference(r *Recorder, w io.Writer) error {
	if r == nil {
		return errors.New("trace: nil recorder")
	}
	spans := r.Spans()
	instants := slices.Clone(r.instants)
	counters := make([]Counter, 0, len(r.names))
	for _, name := range r.names {
		counters = append(counters, *r.counters[name])
	}

	tracks := slices.Clone(r.tracks)
	slices.Sort(tracks)
	tid := make(map[string]int, len(tracks))
	for i, name := range tracks {
		tid[name] = i + 1
	}

	events := make([]chromeEvent, 0, 2+len(tracks)+len(spans)+len(instants))
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
		Args: map[string]any{"name": "pask"},
	})
	for _, name := range tracks {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid[name],
			Args: map[string]any{"name": name},
		})
		events = append(events, chromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: chromePid, Tid: tid[name],
			Args: map[string]any{"sort_index": tid[name]},
		})
	}

	body := make([]chromeEvent, 0, len(spans)+len(instants))
	for _, s := range spans {
		dur := usec(s.End - s.Start)
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Cat: string(s.Cat),
			Ts: usec(s.Start), Dur: &dur,
			Pid: chromePid, Tid: tid[s.Thread],
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		body = append(body, ev)
	}
	for _, in := range instants {
		ev := chromeEvent{
			Name: in.Name, Ph: "i",
			Ts:  usec(in.At),
			Pid: chromePid, Tid: tid[in.Track], S: "t",
		}
		if len(in.Attrs) > 0 {
			ev.Args = make(map[string]any, len(in.Attrs))
			for _, a := range in.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		body = append(body, ev)
	}
	slices.SortStableFunc(body, func(a, b chromeEvent) int {
		if a.Ts != b.Ts {
			if a.Ts < b.Ts {
				return -1
			}
			return 1
		}
		if a.Tid != b.Tid {
			return a.Tid - b.Tid
		}
		return strings.Compare(a.Name, b.Name)
	})
	events = append(events, body...)

	// Counter events last, grouped by series then time, so the numeric
	// tracks render under the thread tracks.
	for _, c := range counters {
		for _, s := range c.Samples {
			events = append(events, chromeEvent{
				Name: c.Name, Ph: "C",
				Ts:  usec(s.At),
				Pid: chromePid, Tid: 0,
				Args: map[string]any{"value": s.Value},
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{DisplayTimeUnit: "ms", TraceEvents: events})
}

// fuzzRecorder decodes a byte string into a recording, one record at a
// time until the input runs out. A record's first byte picks a span, an
// instant or a counter sample; strings are a length byte and that many raw
// bytes; a timestamp is a mode byte followed by its payload (see fuzzTime).
func fuzzRecorder(data []byte) *Recorder {
	d := fuzzDecoder{data: data}
	r := New()
	for len(d.data) > 0 {
		switch d.byte() % 3 {
		case 0:
			track, cat, name := d.str(), d.str(), d.str()
			start := d.time()
			end := d.time()
			r.Span(track, metrics.Category(cat), name, start, end, d.attrs()...)
		case 1:
			track, name := d.str(), d.str()
			at := d.time()
			r.Instant(track, name, at, d.attrs()...)
		default:
			name := d.str()
			at := d.time()
			r.Count(name, at, d.value())
		}
	}
	return r
}

type fuzzDecoder struct {
	data []byte
	prev time.Duration // last timestamp decoded
}

func (d *fuzzDecoder) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *fuzzDecoder) bytes(n int) []byte {
	n = min(n, len(d.data))
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *fuzzDecoder) uint64() uint64 {
	var buf [8]byte
	copy(buf[:], d.bytes(8))
	return binary.LittleEndian.Uint64(buf[:])
}

func (d *fuzzDecoder) str() string { return string(d.bytes(int(d.byte()))) }

// time decodes a timestamp by mode: 0 repeats the previous one, 1 adds a
// small step, 2 reads a raw int64 of nanoseconds, and 3 lands within 32 µs
// of ±exactUsecLimit, where appendUsec switches to float formatting.
func (d *fuzzDecoder) time() time.Duration {
	mode := d.byte()
	switch mode % 4 {
	case 1:
		d.prev += time.Duration(d.byte()) * 111
	case 2:
		d.prev = time.Duration(d.uint64())
	case 3:
		var buf [2]byte
		copy(buf[:], d.bytes(2))
		off := time.Duration(int16(binary.LittleEndian.Uint16(buf[:])))
		d.prev = exactUsecLimit + off
		if mode&0x80 != 0 {
			d.prev = -d.prev
		}
	}
	return d.prev
}

// value decodes a counter value: raw float64 bits, a small integer, a
// non-finite value or a float64 of raw int64 thousandths.
func (d *fuzzDecoder) value() float64 {
	switch d.byte() % 4 {
	case 0:
		return math.Float64frombits(d.uint64())
	case 1:
		return float64(int8(d.byte()))
	case 2:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[d.byte()%3]
	default:
		return float64(int64(d.uint64())) / 1000
	}
}

func (d *fuzzDecoder) attrs() []metrics.Attr {
	var attrs []metrics.Attr
	for n := d.byte() % 4; n > 0; n-- {
		attrs = append(attrs, metrics.Attr{Key: d.str(), Value: d.str()})
	}
	return attrs
}

// fuzzInput encodes records in the format fuzzRecorder decodes, so seeds
// read as recordings.
type fuzzInput []byte

func (in fuzzInput) str(s string) fuzzInput { return append(append(in, byte(len(s))), s...) }

func (in fuzzInput) at(ns time.Duration) fuzzInput {
	return binary.LittleEndian.AppendUint64(append(in, 2), uint64(ns))
}

func (in fuzzInput) attrs(kv ...string) fuzzInput {
	in = append(in, byte(len(kv)/2))
	for _, s := range kv {
		in = in.str(s)
	}
	return in
}

func (in fuzzInput) span(track, cat, name string, start, end time.Duration, kv ...string) fuzzInput {
	return append(in, 0).str(track).str(cat).str(name).at(start).at(end).attrs(kv...)
}

func (in fuzzInput) instant(track, name string, at time.Duration, kv ...string) fuzzInput {
	return append(in, 1).str(track).str(name).at(at).attrs(kv...)
}

func (in fuzzInput) count(name string, at time.Duration, v float64) fuzzInput {
	return binary.LittleEndian.AppendUint64(append(append(in, 2).str(name).at(at), 0), math.Float64bits(v))
}

func checkMatchesReference(t *testing.T, r *Recorder) {
	t.Helper()
	var got, want bytes.Buffer
	err := r.WriteChrome(&got)
	refErr := writeChromeReference(r, &want)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("WriteChrome error %v, reference error %v", err, refErr)
	}
	if err != nil && got.Len() > 0 {
		t.Fatalf("WriteChrome wrote %d bytes before failing: %v", got.Len(), err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteChrome differs from the reference encoder\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

// FuzzWriteChrome compares the appender with the reference encoder, bytes
// and error-ness, on decoded recordings. The seeds cover strings that need
// escapes, repeated attribute keys, empty categories, equal timestamps,
// timestamps on both sides of exactUsecLimit and non-finite counters.
func FuzzWriteChrome(f *testing.F) {
	const us = time.Microsecond
	lim := exactUsecLimit
	f.Add([]byte(fuzzInput{}.
		span("gpu", "exec", "conv1", 0, 5*ms, "solution", "ConvAsm1x1U").
		span("pask-loader", "load", "load:conv1.hsaco", 1*ms+1, 4*ms+20, "bytes", "1048576").
		instant("run", "run-end", 9*ms+123*us+456)))
	f.Add([]byte(fuzzInput{}.
		span("<gpu>", "exec", "a&b <c>", 0, 1, "k<", "v&").
		span("pask\x00parser", "", "\x01\x1f\"q\"\\", 7, 7).
		instant("run", "bad\xff\xfeutf8", 3, "\u2028", "line\u2029sep").
		span("gpu", "exec", "del\x7f", 2, 3)))
	f.Add([]byte(fuzzInput{}.
		span("gpu", "exec", "k", 10, 20, "solution", "first", "bytes", "1", "solution", "last").
		instant("gpu", "k", 10, "a", "1", "a", "2", "a", "3").
		span("gpu", "exec", "k", 10, 20).
		span("gpu", "", "j", 10, 10)))
	f.Add([]byte(fuzzInput{}.
		span("gpu", "exec", "below", lim-1, lim-1+us).
		span("gpu", "exec", "at", lim, lim+1).
		span("gpu", "exec", "above", lim+999, 2*lim+7).
		instant("gpu", "neg", -lim-1).
		instant("gpu", "neg-below", -lim+1).
		span("gpu", "exec", "huge", math.MaxInt64-5, math.MaxInt64).
		count("q", lim+1, 1)))
	f.Add([]byte(fuzzInput{}.
		span("gpu", "exec", "k", 0, 1).
		count("resident", 0, 1.5).
		count("resident", 1, 1e-7).
		count("resident", 2, 1e21).
		count("resident", 3, math.Copysign(0, -1)).
		count("resident", 4, 1<<53).
		count("nan", 5, math.NaN())))
	f.Add([]byte(fuzzInput{}.
		count("inf", 0, math.Inf(1)).
		count("ninf", 0, math.Inf(-1))))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		checkMatchesReference(t, fuzzRecorder(data))
	})
}

// failAfter fails every write after the first n bytes.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, errors.New("short write")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteChromeStreams checks that a large export reaches the writer in
// bounded pieces and that a failed write surfaces as the error.
func TestWriteChromeStreams(t *testing.T) {
	r := New()
	for i := 0; i < 5000; i++ {
		at := time.Duration(i) * time.Microsecond
		r.Span("gpu", metrics.CatExec, "kernel", at, at+time.Microsecond/2, metrics.Attr{Key: "solution", Value: "ConvAsm1x1U"})
	}
	var pieces []int
	w := writerFunc(func(p []byte) (int, error) {
		pieces = append(pieces, len(p))
		return len(p), nil
	})
	if err := r.WriteChrome(w); err != nil {
		t.Fatal(err)
	}
	if len(pieces) < 2 || slices.Max(pieces) > 2*chromeChunk {
		t.Fatalf("write sizes %v: want several pieces of at most %d bytes", pieces, 2*chromeChunk)
	}
	if err := r.WriteChrome(&failAfter{n: chromeChunk * 3}); err == nil || !strings.Contains(err.Error(), "short write") {
		t.Fatalf("failed write: got error %v", err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
