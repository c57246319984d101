package experiments

import (
	"testing"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/trace"
	"pask/internal/warmup"
)

// TestWarmupBeatsColdOnAllDevices is the tentpole acceptance check: replaying
// a recorded load profile must put time-to-first-inference strictly below the
// cold arm on every device profile.
func TestWarmupBeatsColdOnAllDevices(t *testing.T) {
	for _, prof := range device.Profiles() {
		ms, err := PrepareModel("alex", 1, prof)
		if err != nil {
			t.Fatalf("%s: PrepareModel: %v", prof.Name, err)
		}
		cold, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, true)
		if err != nil {
			t.Fatalf("%s: cold+record: %v", prof.Name, err)
		}
		if cold.Profile == nil || len(cold.Profile.Entries) == 0 {
			t.Fatalf("%s: recording produced no entries", prof.Name)
		}
		if cold.Profile.Device != prof.Name || cold.Profile.Model != "alex" {
			t.Fatalf("%s: profile header wrong: %+v", prof.Name, cold.Profile)
		}
		warmed, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, cold.Profile, false)
		if err != nil {
			t.Fatalf("%s: warmed: %v", prof.Name, err)
		}
		if warmed.TTFI >= cold.TTFI {
			t.Errorf("%s: warmed TTFI %v not below cold %v", prof.Name, warmed.TTFI, cold.TTFI)
		}
		if warmed.Replay.Loaded+warmed.Replay.Coalesced == 0 {
			t.Errorf("%s: replay prefetched nothing: %+v", prof.Name, warmed.Replay)
		}
		if warmed.Replay.Hits == 0 {
			t.Errorf("%s: no prefetch hits: %+v", prof.Name, warmed.Replay)
		}
		if warmed.Rep.WarmupHits != warmed.Replay.Hits || warmed.Rep.WarmupStale != warmed.Replay.Stale {
			t.Errorf("%s: report/replay mismatch: %+v vs %+v", prof.Name, warmed.Rep, warmed.Replay)
		}
	}
}

// TestWarmupStaleManifestDegradesToCold corrupts every entry's checksum: the
// run must still succeed (a plain cold start) with the entries counted stale.
func TestWarmupStaleManifestDegradesToCold(t *testing.T) {
	ms, err := PrepareModel("alex", 1, device.MI100())
	if err != nil {
		t.Fatalf("PrepareModel: %v", err)
	}
	rec, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, true)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	man := rec.Profile
	for i := range man.Entries {
		man.Entries[i].Checksum++
	}
	man.Entries = append(man.Entries, warmup.Entry{Path: "no/such/object.pko", Checksum: 1})

	warmed, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, man, false)
	if err != nil {
		t.Fatalf("stale manifest must not fail the run: %v", err)
	}
	if warmed.Replay.Stale != len(man.Entries) {
		t.Fatalf("want %d stale entries, got %+v", len(man.Entries), warmed.Replay)
	}
	if warmed.Replay.Loaded != 0 || warmed.Replay.Hits != 0 {
		t.Fatalf("stale replay must prefetch nothing: %+v", warmed.Replay)
	}
	if warmed.Rep.WarmupStale != len(man.Entries) {
		t.Fatalf("Report.WarmupStale = %d, want %d", warmed.Rep.WarmupStale, len(man.Entries))
	}
}

// TestWarmupCountersInTrace asserts the prefetch counter series land in the
// recorded trace (and therefore in the Chrome export and /metrics).
func TestWarmupCountersInTrace(t *testing.T) {
	ms, err := PrepareModel("alex", 1, device.MI100())
	if err != nil {
		t.Fatalf("PrepareModel: %v", err)
	}
	rec, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, true)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	tr := trace.New()
	if _, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, tr, rec.Profile, false); err != nil {
		t.Fatalf("warmed: %v", err)
	}
	want := map[string]bool{
		"warmup_prefetch_hits":   false,
		"warmup_prefetch_misses": false,
		"warmup_prefetch_wasted": false,
		"warmup_stale_entries":   false,
	}
	for _, ev := range chromeEvents(t, tr) {
		if _, ok := want[ev.Name]; ok && ev.Ph == "C" {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("counter series %q missing from trace", name)
		}
	}
	spans := 0
	for _, s := range tr.Spans() {
		if s.Thread == warmup.Track {
			spans++
		}
	}
	if spans == 0 {
		t.Error("no prefetch spans on the warmup track")
	}
}

// TestWarmupExperimentShape runs the full experiment at batch 1 and checks
// the bench payload the CI smoke uploads.
func TestWarmupExperimentShape(t *testing.T) {
	tbl, bench, err := WarmupExperiment("alex", 1, nil)
	if err != nil {
		t.Fatalf("WarmupExperiment: %v", err)
	}
	if len(tbl.Rows) != 3 || len(bench.Devices) != 3 {
		t.Fatalf("want 3 device rows, got %d/%d", len(tbl.Rows), len(bench.Devices))
	}
	for _, d := range bench.Devices {
		if d.WarmedMs >= d.ColdMs {
			t.Errorf("%s: warmed %.2fms not below cold %.2fms", d.Device, d.WarmedMs, d.ColdMs)
		}
		if d.Speedup <= 1 {
			t.Errorf("%s: speedup %.2f not above 1", d.Device, d.Speedup)
		}
		if d.ProfileEntries == 0 {
			t.Errorf("%s: empty profile", d.Device)
		}
	}
}
