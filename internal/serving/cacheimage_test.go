package serving

import (
	"fmt"
	"testing"
	"time"

	"pask/internal/cacheimg"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/trace"
)

// The image transfer model: a fixed 400µs setup plus the payload at 1 GiB/s.
func TestTransferModelDuration(t *testing.T) {
	if got := pullDuration(0); got != 400*time.Microsecond {
		t.Fatalf("empty pull = %v, want the 400µs setup", got)
	}
	if got, want := pullDuration(1<<30), 400*time.Microsecond+time.Second; got != want {
		t.Fatalf("1 GiB pull = %v, want %v", got, want)
	}
}

// TestCacheImageAcceptance runs the quick sweep and checks the headline
// claims on every device profile: full-coverage warm attach beats the
// all-cold baseline, and the chaos arm completes every request correctly
// via cold-start fallback with its rejections counted.
func TestCacheImageAcceptance(t *testing.T) {
	rec := trace.New()
	res, err := CacheImage(experiments.Options{Quick: true, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	bench := res.Bench.(*CacheImageBench)
	if len(bench.Devices) != 3 {
		t.Fatalf("expected 3 device profiles, got %d", len(bench.Devices))
	}
	for _, dev := range bench.Devices {
		if dev.ImageID == "" || dev.ImageBytes == 0 || dev.Objects == 0 {
			t.Errorf("%s: empty image metadata: %+v", dev.Device, dev)
		}
		var cold, full *CacheImageCell
		for i := range dev.Cells {
			c := &dev.Cells[i]
			if c.Coverage == 0 {
				cold = c
			}
			if c.Coverage == 1 {
				full = c
			}
		}
		if cold == nil || full == nil {
			t.Fatalf("%s: sweep missing coverage endpoints: %+v", dev.Device, dev.Cells)
		}
		if cold.ColdMeanMs <= 0 || full.WarmMeanMs <= 0 {
			t.Fatalf("%s: missing TTFI means: cold %+v full %+v", dev.Device, cold, full)
		}
		if full.WarmMeanMs >= cold.ColdMeanMs {
			t.Errorf("%s: warm-attach TTFI %.3fms not below cold %.3fms",
				dev.Device, full.WarmMeanMs, cold.ColdMeanMs)
		}
		if full.Attached != full.Nodes {
			t.Errorf("%s: fault-free full coverage attached %d/%d", dev.Device, full.Attached, full.Nodes)
		}

		chaos := dev.Chaos
		if chaos == nil {
			t.Fatalf("%s: no chaos arm", dev.Device)
		}
		if chaos.Failed != 0 {
			t.Errorf("%s chaos: %d failed requests, want 0 (degradation must be cold, not wrong)", dev.Device, chaos.Failed)
		}
		if chaos.Served != chaos.Nodes {
			t.Errorf("%s chaos: served %d/%d", dev.Device, chaos.Served, chaos.Nodes)
		}
		if !chaos.StoreUntouched {
			t.Errorf("%s chaos: shared code-object store fingerprint changed", dev.Device)
		}
		// The planted decoys make the typed-reject rungs deterministic.
		if chaos.RejectedProfile == 0 {
			t.Errorf("%s chaos: no profile rejects despite planted decoy", dev.Device)
		}
		if chaos.StaleRejects == 0 {
			t.Errorf("%s chaos: no stale rejects despite planted decoy", dev.Device)
		}
		if chaos.Attached >= chaos.Nodes {
			t.Errorf("%s chaos: every node attached — fault injection did nothing", dev.Device)
		}
		// All cells: every request lands somewhere, and the store stays pristine.
		for _, c := range append(dev.Cells, *chaos) {
			if c.Served+c.Failed != c.Nodes {
				t.Errorf("%s n=%d c=%.2f: served+failed = %d, want %d", dev.Device, c.Nodes, c.Coverage, c.Served+c.Failed, c.Nodes)
			}
			if !c.StoreUntouched {
				t.Errorf("%s n=%d c=%.2f: store mutated", dev.Device, c.Nodes, c.Coverage)
			}
		}
	}
	// The chaos counters landed on the first device's timeline.
	sampled := map[string]bool{}
	for _, ev := range chromeEvents(t, rec) {
		if ev.Ph == "C" {
			sampled[ev.Name] = true
		}
	}
	for _, name := range []string{"cacheimg_attach_ok", "cacheimg_quarantined",
		"cacheimg_reject_profile", "cacheimg_reject_stale", "cacheimg_nodes_killed"} {
		if !sampled[name] {
			t.Errorf("counter %s never emitted", name)
		}
	}
}

// TestCacheImageChaosCell pins one chaos cell large enough that pulls are
// truncated and retried, images arrive corrupt and a node dies. The cell
// pins the fault rates; the time of the end-of-cell counters, which trails
// the latest node's pull retries and backoff waits, pins the pull schedule.
func TestCacheImageChaosCell(t *testing.T) {
	ms, err := experiments.PrepareModel("alex", 1, device.MI100())
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := ms.BuildCacheImage()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	f := &cacheImageFleet{ms: ms, img: img, raw: raw, id: cacheimg.ID(raw), baseDir: t.TempDir(), rec: rec,
		faults: pullFaults{seed: cacheImageSeed, corrupt: cacheImageChaosCorrupt,
			truncate: cacheImageChaosTruncate, kill: cacheImageChaosKill}}
	cell, err := f.runCell(8, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	want := CacheImageCell{Nodes: 8, Coverage: 1, Seeded: 8, Attached: 3, PullRetries: 3, PullCorrupt: 2,
		NodesKilled: 1, Quarantined: 2, RejectedProfile: 1, StaleRejects: 1, Served: 8, Failed: 0,
		WarmMeanMs: 109.00683, ColdMeanMs: 110.656495, Speedup: 1.0151335930051357, StoreUntouched: true}
	if cell != want {
		t.Fatalf("chaos cell = %+v\nwant %+v", cell, want)
	}
	var end time.Duration // the latest span end or instant
	for _, ev := range chromeEvents(t, rec) {
		if ev.Ph != "C" {
			end = max(end, ev.End)
		}
	}
	if end != 120476714 {
		t.Fatalf("cell ended at %v, want 120.476714ms", end)
	}
}

// TestCacheImagePullFaultDeterministicAndTyped pins that pull outcomes are a
// pure function of (seed, node, attempt), that a mixed plan reaches all four
// outcomes, and that the zero value injects nothing.
func TestCacheImagePullFaultDeterministicAndTyped(t *testing.T) {
	if got := (pullFaults{}).outcome("node-0", 0); got != pullOK {
		t.Fatalf("zero pullFaults = %d, want ok", got)
	}
	mixed := pullFaults{seed: 11, corrupt: 0.3, truncate: 0.3, kill: 0.2}
	seen := map[pullOutcome]bool{}
	for node := 0; node < 10; node++ {
		for attempt := 0; attempt < 3; attempt++ {
			key := fmt.Sprintf("node-%d", node)
			got := mixed.outcome(key, attempt)
			if again := mixed.outcome(key, attempt); again != got {
				t.Fatalf("pull %s/%d not deterministic: %d vs %d", key, attempt, got, again)
			}
			seen[got] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("30 mixed pulls hit outcomes %v, want all four", seen)
	}
}

// TestCacheImagePullFaultKillWins pins that node death wins over the
// transfer faults on every attempt.
func TestCacheImagePullFaultKillWins(t *testing.T) {
	doomed := pullFaults{seed: 3, kill: 1, truncate: 1, corrupt: 1}
	for attempt := 0; attempt < 3; attempt++ {
		if got := doomed.outcome("node-7", attempt); got != pullKilled {
			t.Fatalf("attempt %d: got %d, want killed", attempt, got)
		}
	}
}

// TestCacheImagePullFaultTruncateRetriesFreshOdds pins that truncation is
// rolled per attempt: at a 50% rate some retry of a truncated pull succeeds.
func TestCacheImagePullFaultTruncateRetriesFreshOdds(t *testing.T) {
	flaky := pullFaults{seed: 5, truncate: 0.5}
	recovered := false
	for node := 0; node < 32 && !recovered; node++ {
		key := fmt.Sprintf("node-%d", node)
		if flaky.outcome(key, 0) != pullTruncated {
			continue
		}
		for attempt := 1; attempt < 8 && !recovered; attempt++ {
			recovered = flaky.outcome(key, attempt) == pullOK
		}
	}
	if !recovered {
		t.Fatal("no truncated pull ever recovered on retry across 32 nodes x 8 attempts")
	}
}

// TestCacheImagePullFaultCorrupt pins that a rate-1 corruption damages the
// pull.
func TestCacheImagePullFaultCorrupt(t *testing.T) {
	if got := (pullFaults{seed: 1, corrupt: 1}).outcome("node-0", 0); got != pullCorrupt {
		t.Fatalf("rate-1 corruption = %d, want corrupt", got)
	}
}
