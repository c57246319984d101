package serving

import (
	"testing"
	"time"

	"pask/internal/cacheimg"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/faults"
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
	for _, name := range []string{"cacheimg_attach_ok", "cacheimg_quarantined",
		"cacheimg_reject_profile", "cacheimg_reject_stale", "cacheimg_nodes_killed"} {
		if _, ok := rec.CounterLast(name); !ok {
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
		inj: faults.New(faults.Plan{Seed: cacheImageSeed, ImgCorruptRate: cacheImageChaosCorrupt,
			ImgTruncateRate: cacheImageChaosTruncate, NodeKillRate: cacheImageChaosKill})}
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
	if _, end := rec.Window(); end != 120476714 {
		t.Fatalf("cell ended at %v, want 120.476714ms", end)
	}
}
