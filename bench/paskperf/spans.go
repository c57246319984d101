package main

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory until the run ends; the benchmark keeps its own recorder instead of
// internal/trace so that the measuring code does not depend on a layer it
// measures.
type span struct {
	Name   string
	Track  string // the lane the call ran on, one Chrome thread each
	Start  time.Duration
	End    time.Duration
	Parent int   // index of the enclosing span, -1 at the top
	Op     int64 // the operation the span belongs to
}

// tracer records spans. A nil *tracer records nothing, so measured code has
// one path for traced and untraced runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name, track string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Track: track, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval the caller measured itself (an HTTP
// request timed from its due time, say).
func (t *tracer) record(name, track string, start, end time.Time, parent int, op int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Track: track, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Op: op})
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Overlapping children count once: the covered part
// is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return ch[a].a < ch[b].a })
		var covered time.Duration
		cur := iv{-1, -1}
		flush := func() {
			if cur.b > cur.a {
				covered += cur.b - cur.a
			}
		}
		for _, c := range ch {
			c.a, c.b = max(c.a, s.Start), min(c.b, s.End)
			if c.b <= c.a {
				continue
			}
			if cur.b < 0 || c.a > cur.b {
				flush()
				cur = c
				continue
			}
			cur.b = max(cur.b, c.b)
		}
		flush()
		out[i] = s.End - s.Start - covered
	}
	return out
}

// outsideCalls returns the self time of the root "measure" span over its
// duration: the share of the measured stretch in which no call into the
// program was running. That is the benchmark's own work (checking outputs,
// drawing inputs) and, in an open loop, the time no request was in flight.
func outsideCalls(spans []span) float64 {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == "measure" && s.Parent < 0 && s.End > s.Start {
			return float64(self[i]) / float64(s.End-s.Start)
		}
	}
	return 0
}

// chromeEvent is one Chrome trace_event entry; times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes spans as Chrome trace_event JSON, one thread per track
// and spans in start order, the shape `paskbench -validate-trace` accepts.
func writeChrome(w io.Writer, spans []span) error {
	var tracks []string
	tid := map[string]int{}
	for _, s := range spans {
		if _, ok := tid[s.Track]; !ok {
			tracks = append(tracks, s.Track)
			tid[s.Track] = 0
		}
	}
	slices.Sort(tracks)
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "paskperf"}}}
	for i, name := range tracks {
		tid[name] = i + 1
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": name}})
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, i := range order {
		s := spans[i]
		dur := us(s.End - s.Start)
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: &dur, Pid: 1, Tid: tid[s.Track],
			Args: map[string]any{"op": s.Op, "parent": s.Parent, "id": i},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
}
