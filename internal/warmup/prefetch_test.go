package warmup

import (
	"slices"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// prefetchCase is one row of TestPrefetchCounts: a manifest over a small
// store, the registry state the prefetcher meets, and the counts it must
// report.
type prefetchCase struct {
	name       string
	predictive bool     // StartPredictive with budget; otherwise Start
	budget     int      // predictive only
	entries    []string // manifest paths, in order
	stale      []string // entries whose recorded checksum no longer matches
	damaged    []string // paths the registry's fault injector reads back changed
	resident   []string // loaded through the root view before the prefetcher starts
	demand     []string // loaded by a demand thread spawned just before the prefetcher
	closeFirst bool     // predictive only: Prefetch and Close before the thread first runs
	used       []string // object paths the run used, for Account
	want       ReplayStats
	spent      int // predictive only: budget consumed
}

var prefetchCases = []prefetchCase{
	{
		name:    "replay/fresh",
		entries: []string{"a.pko", "b.pko"},
		used:    []string{"a.pko", "c.pko"},
		want:    ReplayStats{Entries: 2, Loaded: 2, Hits: 1, Misses: 1, Wasted: 1},
	},
	{
		name:     "replay/resident",
		entries:  []string{"a.pko", "b.pko"},
		resident: []string{"a.pko"},
		used:     []string{"a.pko", "b.pko"},
		want:     ReplayStats{Entries: 2, Loaded: 1, Resident: 1, Hits: 2},
	},
	{
		name:    "replay/stale",
		entries: []string{"a.pko", "b.pko", "gone.pko"},
		stale:   []string{"a.pko"},
		used:    []string{"a.pko", "b.pko"},
		want:    ReplayStats{Entries: 3, Loaded: 1, Stale: 2, Hits: 1, Misses: 1},
	},
	{
		// The prefetcher reads through the registry's fault seam: bytes an
		// injector damages are stale, though the store's copy matches.
		name:    "replay/damaged-read",
		entries: []string{"a.pko", "b.pko"},
		damaged: []string{"a.pko"},
		used:    []string{"a.pko", "b.pko"},
		want:    ReplayStats{Entries: 2, Loaded: 1, Stale: 1, Hits: 1, Misses: 1},
	},
	{
		name:    "replay/failed",
		entries: []string{"bad.pko", "b.pko"},
		used:    []string{"b.pko"},
		want:    ReplayStats{Entries: 2, Loaded: 1, Failed: 1, Hits: 1},
	},
	{
		name:    "replay/coalesced",
		entries: []string{"a.pko", "b.pko"},
		demand:  []string{"a.pko"},
		used:    []string{"a.pko", "b.pko"},
		want:    ReplayStats{Entries: 2, Loaded: 1, Coalesced: 1, Hits: 2},
	},
	{
		// The second listing is already covered and is skipped.
		name:    "replay/listed-twice",
		entries: []string{"a.pko", "a.pko"},
		used:    []string{"a.pko"},
		want:    ReplayStats{Entries: 1, Loaded: 1, Hits: 1},
	},
	{
		name:     "replay/stale-resident",
		entries:  []string{"a.pko"},
		stale:    []string{"a.pko"},
		resident: []string{"a.pko"},
		used:     []string{"a.pko"},
		want:     ReplayStats{Entries: 1, Stale: 1, Misses: 1},
	},
	{
		name:       "predictive/fresh",
		predictive: true, budget: 10,
		entries: []string{"a.pko", "b.pko"},
		used:    []string{"a.pko", "c.pko"},
		want:    ReplayStats{Entries: 2, Loaded: 2, Hits: 1, Misses: 1, Wasted: 1},
		spent:   2,
	},
	{
		name:       "predictive/resident",
		predictive: true, budget: 10,
		entries:  []string{"a.pko", "b.pko"},
		resident: []string{"a.pko"},
		used:     []string{"a.pko", "b.pko"},
		want:     ReplayStats{Entries: 2, Loaded: 1, Resident: 1, Hits: 2},
		spent:    1,
	},
	{
		name:       "predictive/stale",
		predictive: true, budget: 10,
		entries: []string{"a.pko", "b.pko", "gone.pko"},
		stale:   []string{"a.pko"},
		used:    []string{"a.pko", "b.pko"},
		want:    ReplayStats{Entries: 3, Loaded: 1, Stale: 2, Hits: 1, Misses: 1},
		spent:   3,
	},
	{
		name:       "predictive/failed",
		predictive: true, budget: 10,
		entries: []string{"bad.pko", "b.pko"},
		used:    []string{"b.pko"},
		want:    ReplayStats{Entries: 2, Loaded: 1, Failed: 1, Hits: 1},
		spent:   2,
	},
	{
		name:       "predictive/coalesced",
		predictive: true, budget: 10,
		entries: []string{"a.pko", "b.pko"},
		demand:  []string{"a.pko"},
		used:    []string{"a.pko", "b.pko"},
		want:    ReplayStats{Entries: 2, Loaded: 1, Coalesced: 1, Hits: 2},
		spent:   2,
	},
	{
		// The budget stops the thread at the first entry it cannot pay
		// for: residents before that point are free and counted, entries
		// after it are never reached.
		name:       "predictive/budget-exhausted",
		predictive: true, budget: 2,
		entries:  []string{"a.pko", "b.pko", "c.pko", "d.pko", "e.pko"},
		resident: []string{"c.pko", "e.pko"},
		used:     []string{"a.pko", "d.pko"},
		want:     ReplayStats{Entries: 3, Loaded: 2, Resident: 1, Hits: 1, Misses: 1, Wasted: 2},
		spent:    2,
	},
	{
		name:       "predictive/budget-stale",
		predictive: true, budget: 1,
		entries: []string{"a.pko", "b.pko"},
		stale:   []string{"a.pko"},
		used:    []string{"b.pko"},
		want:    ReplayStats{Entries: 1, Stale: 1, Misses: 1},
		spent:   1,
	},
	{
		name:       "predictive/close-before-run",
		predictive: true, budget: 10,
		entries:    []string{"a.pko", "b.pko"},
		closeFirst: true,
		used:       []string{"a.pko", "b.pko"},
		want:       ReplayStats{Entries: 2, Loaded: 2, Hits: 2},
		spent:      2,
	},
	{
		name:       "predictive/listed-twice",
		predictive: true, budget: 10,
		entries: []string{"a.pko", "a.pko"},
		used:    []string{"a.pko"},
		want:    ReplayStats{Entries: 1, Loaded: 1, Hits: 1},
		spent:   1,
	},
	{
		// The checksum is checked before residency: a resident object
		// whose bytes changed is stale, and counts as an attempt.
		name:       "predictive/stale-resident",
		predictive: true, budget: 10,
		entries:  []string{"a.pko"},
		stale:    []string{"a.pko"},
		resident: []string{"a.pko"},
		used:     []string{"a.pko"},
		want:     ReplayStats{Entries: 1, Stale: 1, Misses: 1},
		spent:    1,
	},
}

// TestPrefetchCounts pins what Start and StartPredictive report per entry
// outcome: the replay counters, the Account reconciliation and the
// predictive budget's spend.
func TestPrefetchCounts(t *testing.T) {
	for _, tc := range prefetchCases {
		t.Run(tc.name, func(t *testing.T) {
			st, spent := runPrefetchCase(t, tc)
			if st != tc.want {
				t.Errorf("stats = %+v\nwant    %+v", st, tc.want)
			}
			if tc.predictive && spent != tc.spent {
				t.Errorf("spent = %d, want %d", spent, tc.spent)
			}
		})
	}
}

// damageReads is a fault injector that reads the listed paths back with
// their first byte flipped.
type damageReads struct{ paths []string }

func (damageReads) ExtraLoadLatency(time.Duration, string) time.Duration { return 0 }
func (damageReads) ExtraLoadError(time.Duration, string) error           { return nil }
func (damageReads) LoadLatencyScale(time.Duration) float64               { return 1 }

func (d damageReads) StoreGet(path string, data []byte) ([]byte, error) {
	if !slices.Contains(d.paths, path) {
		return data, nil
	}
	cp := slices.Clone(data)
	cp[0] ^= 0xff
	return cp, nil
}

func runPrefetchCase(t *testing.T, tc prefetchCase) (ReplayStats, int) {
	t.Helper()
	env := sim.NewEnv()
	store := codeobj.NewStore()
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		store.Put(name+".pko", buildObject(t, name))
	}
	store.Put("bad.pko", []byte("not a code object"))
	stale := make(map[string]bool)
	for _, path := range tc.stale {
		stale[path] = true
	}
	man := &Manifest{Version: Version, Model: "m"}
	for _, path := range tc.entries {
		var sum uint32 = 7
		if data, err := store.Get(path); err == nil {
			sum = Checksum(data)
		}
		if stale[path] {
			sum++
		}
		man.Entries = append(man.Entries, Entry{Path: path, Checksum: sum})
	}
	gpu := device.NewGPU(env, device.MI100())
	rt := backend.New(env, gpu, device.DefaultHost(), store, backend.HIP)
	if len(tc.damaged) > 0 {
		rt.SetFaults(damageReads{paths: tc.damaged})
	}

	var pf *Prefetcher
	start := func() {
		if !tc.predictive {
			pf = Start(env, rt, man, nil)
			return
		}
		pf = StartPredictive(env, rt, map[string]*Manifest{"m": man}, tc.budget, nil)
		pf.Prefetch("m")
		pf.Close()
		pf.Prefetch("m") // after Close: ignored
	}
	if tc.closeFirst {
		start()
	}
	env.Spawn("driver", func(p *sim.Proc) {
		for _, path := range tc.resident {
			if _, err := rt.ModuleLoad(p, path); err != nil {
				t.Errorf("preload %s: %v", path, err)
			}
		}
		if len(tc.demand) > 0 {
			env.Spawn("demand", func(p *sim.Proc) {
				for _, path := range tc.demand {
					if _, err := rt.ModuleLoad(p, path); err != nil {
						t.Errorf("demand %s: %v", path, err)
					}
				}
			})
		}
		if !tc.closeFirst {
			start()
		}
		pf.Wait(p)
		gpu.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return pf.Account(tc.used, env.Now()), pf.spent
}
