package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"math"
	"testing"
	"time"

	"pask/internal/core"
	"pask/internal/experiments"
	"pask/internal/metrics"
	"pask/internal/trace"
)

// TestServingProcessesKeepNoSpanLog serves a trace on one isolated instance
// and on a shared keep-alive fleet, with a recorder attached. Every process
// an instance starts, isolated or tenant, must keep no busy time (a serving
// process's breakdown attributes everything to CatOther), while the recorder
// still receives every span: the Chrome trace digests were taken when every
// process kept a span log.
func TestServingProcessesKeepNoSpanLog(t *testing.T) {
	for _, tc := range []struct {
		name   string
		digest string
		serve  func(rec *trace.Recorder) error
	}{
		{"ServeTrace", "557f654d25a531885ba8623fe02a5740af6a7215a8a235e9aebfd23169407c6d", func(rec *trace.Recorder) error {
			tr := PoissonTrace(30, 2*time.Millisecond, 9)
			_, err := ServeTrace(resSetup(t), Policy{Scheme: core.SchemePaSK, Rec: rec}, tr, 10)
			return err
		}},
		{"shared-fleet", "59d7eb60d06d6e334c11b7b5b3c17b5b5914f06421ed1d8026afe9c7306c0207", func(rec *trace.Recorder) error {
			setups := setupSharedModels(t, "alex", "res")
			// Two waves far enough apart for keep-alive to reap the first.
			tr := InterleavedTrace([]string{"alex", "res"}, 4, 3*time.Millisecond)
			for _, r := range InterleavedTrace([]string{"res", "alex"}, 4, 3*time.Millisecond) {
				r.At += 500 * time.Millisecond
				tr = append(tr, r)
			}
			fs, err := ServeFleetModels(setups, "alex", FleetConfig{
				Policy: Policy{Scheme: core.SchemePaSK, Rec: rec}, Shared: true, MaxInstances: 2, KeepAlive: 5 * time.Millisecond,
			}, tr)
			if err == nil && fs.Reaped == 0 {
				t.Errorf("no instance reaped: keep-alive untested (spawned %d)", fs.Spawned)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var procs []*experiments.Process
			startHook = func(pr *experiments.Process) { procs = append(procs, pr) }
			defer func() { startHook = nil }()
			rec := trace.New()
			if err := tc.serve(rec); err != nil {
				t.Fatal(err)
			}
			if len(procs) == 0 {
				t.Fatal("no instance process started")
			}
			for i, pr := range procs {
				want := map[metrics.Category]time.Duration{metrics.CatOther: time.Hour}
				if bd := pr.Tracer.Breakdown(0, time.Hour, metrics.DefaultPriority()); !maps.Equal(bd, want) {
					t.Errorf("process %d keeps busy time %v, want none", i, bd)
				}
			}
			var buf bytes.Buffer
			if err := rec.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("Chrome trace digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// chromeEvent is one span, instant or counter sample of a recorder's
// Chrome export, on its named track, with its times in nanoseconds.
type chromeEvent struct {
	Track, Name, Ph string
	At, End         time.Duration
	Value           float64 // a counter sample's value
}

// chromeEvents exports rec and decodes the events, so tests read a trace
// the way its consumers do.
func chromeEvents(t *testing.T, rec *trace.Recorder) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
			Tid      int
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	ns := func(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
	tracks := map[int]string{}
	var out []chromeEvent
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				tracks[ev.Tid], _ = ev.Args["name"].(string)
			}
			continue
		}
		value, _ := ev.Args["value"].(float64)
		out = append(out, chromeEvent{Track: tracks[ev.Tid], Name: ev.Name, Ph: ev.Ph,
			At: ns(ev.Ts), End: ns(ev.Ts) + ns(ev.Dur), Value: value})
	}
	return out
}
