package serving

import (
	"testing"

	"pask/internal/experiments"
	"pask/internal/trace"
)

// TestPredictiveBeatsReplay is the experiment's headline claim: under a
// shifting Zipfian trace (popularity re-ranked mid-run, flash crowd on the
// new head model), online prediction beats replaying a prior run's profile
// on BOTH prefetch hit rate and mean time-to-first-inference, on every
// device profile — and wasted prefetches are tracked, not hidden.
func TestPredictiveBeatsReplay(t *testing.T) {
	rec := trace.New()
	res, err := Predictive(experiments.Options{Quick: true, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	bench := res.Bench.(*PredictiveBench)
	if len(res.Tables) != 1 || len(bench.Devices) != 3 {
		t.Fatalf("want 3 devices, got %d", len(bench.Devices))
	}
	for _, dev := range bench.Devices {
		cells := make(map[string]PredictiveCell, len(dev.Cells))
		for _, c := range dev.Cells {
			cells[c.Arm] = c
		}
		cold, replay, pred := cells[predArmCold], cells[predArmReplay], cells[predArmPredictive]
		for arm, c := range cells {
			if c.Failed != 0 {
				t.Errorf("%s/%s: %d failed serves", dev.Device, arm, c.Failed)
			}
			if c.Served == 0 {
				t.Errorf("%s/%s: nothing served", dev.Device, arm)
			}
		}
		// The cold arm never prefetches: all demand loads are misses.
		if cold.PrefetchHits != 0 || cold.PrefetchMisses == 0 {
			t.Errorf("%s/cold: hits=%d misses=%d, want 0 hits and some misses",
				dev.Device, cold.PrefetchHits, cold.PrefetchMisses)
		}
		// Replay prefetches the stale pre-shift profile: it must both hit
		// (the old ranking is right before the shift) and waste (wrong after).
		if replay.PrefetchHits == 0 || replay.PrefetchWasted == 0 {
			t.Errorf("%s/replay: hits=%d wasted=%d, want both nonzero",
				dev.Device, replay.PrefetchHits, replay.PrefetchWasted)
		}
		// Headline: predictive beats replay on hit rate AND mean TTFI.
		if pred.HitRate <= replay.HitRate {
			t.Errorf("%s: predictive hit rate %.3f <= replay %.3f",
				dev.Device, pred.HitRate, replay.HitRate)
		}
		if pred.MeanTTFIMs >= replay.MeanTTFIMs {
			t.Errorf("%s: predictive mean TTFI %.3fms >= replay %.3fms",
				dev.Device, pred.MeanTTFIMs, replay.MeanTTFIMs)
		}
		// Predictive must beat the no-prefetch baseline outright. Replay is
		// NOT asserted against cold: with a stale profile its wasted loads
		// compete with demand for the driver lock, and on slow-load devices
		// that can be net-negative — which is the point of being selective.
		if pred.MeanTTFIMs >= cold.MeanTTFIMs {
			t.Errorf("%s: predictive mean TTFI %.3fms >= cold %.3fms",
				dev.Device, pred.MeanTTFIMs, cold.MeanTTFIMs)
		}
		if pred.Nodes == 0 || pred.Prewarmed == 0 {
			t.Errorf("%s: predictive spawned %d nodes, %d prewarmed; want prewarming to fire",
				dev.Device, pred.Nodes, pred.Prewarmed)
		}
	}
	t.Logf("table:\n%s", res.Tables[0].String())

	// Wasted prefetches must surface on the shared counter series.
	found := false
	for _, ev := range chromeEvents(t, rec) {
		if ev.Ph == "C" && ev.Name == "warmup_prefetch_wasted" {
			found = true
		}
	}
	if !found {
		t.Error("warmup_prefetch_wasted counter not emitted on the trace")
	}
}
