package trace_test

import (
	"bytes"
	"testing"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	_ "pask/internal/serving" // registers the serving experiments
	"pask/internal/trace"
)

// TestWriteChromeMatchesReference compares the appender with the reference
// encoder, byte for byte, on real recordings: every scheme's cold start of
// ResNet on the MI100 and one traced serving experiment.
func TestWriteChromeMatchesReference(t *testing.T) {
	ms, err := experiments.PrepareModel("res", 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range core.Schemes() {
		rec := trace.New()
		if _, err := ms.RunSchemeOn(ms.NewProcess(), sch, core.Options{}, rec, nil, false); err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		matchReference(t, "res/MI100/"+string(sch), rec)
	}
	e, ok := experiments.Lookup("overload")
	if !ok {
		t.Fatal("overload experiment not registered")
	}
	rec := trace.New()
	if _, err := e.Run(experiments.Options{Quick: true, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	matchReference(t, "overload", rec)
}

func matchReference(t *testing.T, run string, rec *trace.Recorder) {
	t.Helper()
	var got, want bytes.Buffer
	if err := rec.WriteChrome(&got); err != nil {
		t.Fatalf("%s: %v", run, err)
	}
	if err := trace.WriteChromeReference(rec, &want); err != nil {
		t.Fatalf("%s: reference: %v", run, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: WriteChrome output (%d bytes) differs from the reference encoder's (%d bytes)", run, got.Len(), want.Len())
	}
	if len(rec.Spans()) == 0 {
		t.Errorf("%s: recorded no spans", run)
	}
}
