package pask

import (
	"os"
	"path/filepath"
	"testing"

	"pask/internal/core"
	"pask/internal/warmup"
)

// TestWarmRestartRoundTrip records a profile on a cold run, replays it in a
// fresh run and checks the replay both helps (prefetch hits, lower total)
// and surfaces its accounting in the Report.
func TestWarmRestartRoundTrip(t *testing.T) {
	sys, err := NewSystem(Config{Model: "alex"})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	dir := t.TempDir()
	profile := filepath.Join(dir, "alex.profile.json")

	cold, err := sys.RunScheme(PaSK, WithProfileRecording(profile))
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if cold.WarmupEntries != 0 {
		t.Fatalf("recording run must not report replay stats: %+v", cold)
	}
	if _, err := os.Stat(profile); err != nil {
		t.Fatalf("profile not written: %v", err)
	}

	warm, err := sys.RunScheme(PaSK, WithWarmupProfile(profile))
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	// Report.Total windows out process bring-up — exactly where the replay
	// hides load time — and selective reuse already keeps in-window loads
	// near zero, so the contract here is coverage: the replay engaged,
	// made objects resident ahead of demand, and covered most of what the
	// run used. (Time-to-first-inference, measured from process start, is
	// asserted strictly lower on every device in the experiments test.)
	if warm.WarmupEntries == 0 || warm.WarmupPrefetched == 0 {
		t.Fatalf("replay did not engage: %+v", warm)
	}
	if warm.WarmupHits <= warm.WarmupMisses {
		t.Errorf("replay covered %d used objects but missed %d", warm.WarmupHits, warm.WarmupMisses)
	}
	if warm.WarmupStale != 0 {
		t.Errorf("fresh profile reported %d stale entries", warm.WarmupStale)
	}
	// The public report carries the prefetcher's wasted count. NNV12 runs
	// the layout-uniform plan, so replaying the PaSK profile under it
	// loads objects the run never uses.
	other, err := sys.RunScheme(NNV12, WithWarmupProfile(profile))
	if err != nil {
		t.Fatalf("NNV12 replay: %v", err)
	}
	man, err := warmup.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sys.ms.RunSchemeOn(sys.ms.NewProcess(), core.SchemeNNV12, core.Options{}, nil, man, false)
	if err != nil {
		t.Fatal(err)
	}
	if other.WarmupWasted == 0 || other.WarmupWasted != wr.Replay.Wasted {
		t.Errorf("Report.WarmupWasted = %d, prefetcher wasted %d; want the same nonzero count", other.WarmupWasted, wr.Replay.Wasted)
	}
}

// TestWarmupCorruptManifestFallsBackCold writes garbage where the manifest
// should be: the run must succeed as a plain cold start.
func TestWarmupCorruptManifestFallsBackCold(t *testing.T) {
	sys, err := NewSystem(Config{Model: "alex"})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(bad, []byte("{definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunScheme(PaSK, WithWarmupProfile(bad))
	if err != nil {
		t.Fatalf("corrupt manifest must not fail the run: %v", err)
	}
	if rep.WarmupEntries != 0 || rep.WarmupPrefetched != 0 {
		t.Fatalf("corrupt manifest must be ignored entirely: %+v", rep)
	}
	// A missing file behaves the same way.
	rep, err = sys.RunScheme(PaSK, WithWarmupProfile(filepath.Join(t.TempDir(), "nope.json")))
	if err != nil {
		t.Fatalf("missing manifest must not fail the run: %v", err)
	}
	if rep.WarmupEntries != 0 {
		t.Fatalf("missing manifest must be ignored: %+v", rep)
	}
}
