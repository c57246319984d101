package main

import (
	"fmt"
	"math/rand"
	"time"

	"pask"
	"pask/internal/device"
	"pask/internal/experiments"
)

// coldstartWL runs every scheme on every (model, device) system in a seeded
// order, round after round, through the public pask API: every call is a
// fresh process on the miss path, with no serving layer and no recording.
type coldstartWL struct {
	cfg     config
	gold    *digests
	models  []string
	devices []string
	systems []csSystem
	rounds  int
}

type csSystem struct {
	model, device string
	sys           *pask.System
}

func newColdstart(cfg config, g *goldens) (*coldstartWL, error) {
	gold, err := g.get("coldstart")
	if err != nil {
		return nil, err
	}
	w := &coldstartWL{cfg: cfg, gold: gold, models: cfg.models, devices: cfg.devices}
	if len(w.models) == 0 {
		w.models = experiments.AllModelAbbrs()
	}
	if len(w.devices) == 0 {
		w.devices = pask.Devices()
	}
	return w, nil
}

// setUp builds one system per (model, device); each build is a unit.
func (w *coldstartWL) setUp(tr *tracer) ([]time.Duration, error) {
	var units []time.Duration
	for _, dev := range w.devices {
		for _, m := range w.models {
			id := tr.begin("pask.NewSystem", "setup", -1, int64(len(units)))
			t0 := time.Now()
			sys, err := pask.NewSystem(pask.Config{Model: m, Device: dev, Batch: 1})
			units = append(units, time.Since(t0))
			tr.end(id)
			if err != nil {
				return nil, err
			}
			w.systems = append(w.systems, csSystem{model: m, device: dev, sys: sys})
		}
	}
	// The README's headline numbers, as one more pin on the semantics.
	for _, s := range w.systems {
		if s.model != "res" || s.device != "MI100" {
			continue
		}
		for sch, want := range map[pask.Scheme]string{pask.PaSK: "32.0", pask.Baseline: "146.6"} {
			rep, err := s.sys.RunScheme(sch)
			if err != nil {
				return nil, err
			}
			if got := fmt.Sprintf("%.1f", float64(rep.Total)/float64(time.Millisecond)); got != want {
				w.gold.fail("res on MI100 under %s: %s ms, README says %s ms", sch, got, want)
			}
		}
	}
	return units, nil
}

// measure runs whole rounds until d has passed; each round runs every
// (system, scheme) pair once in an order drawn from the seed.
func (w *coldstartWL) measure(d time.Duration, tr *tracer, root int) (phase, error) {
	type pair struct {
		sys    csSystem
		scheme pask.Scheme
	}
	var pairs []pair
	for _, s := range w.systems {
		for _, sch := range pask.Schemes() {
			pairs = append(pairs, pair{s, sch})
		}
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	var ph phase
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		r0 := time.Now()
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, p := range pairs {
			op := int64(ph.attempted)
			ph.attempted++
			id := tr.begin("pask.RunScheme", "measure", root, op)
			t0 := time.Now()
			rep, err := p.sys.sys.RunScheme(p.scheme)
			lat := time.Since(t0)
			tr.end(id)
			if err != nil {
				return ph, err
			}
			ph.latencies = append(ph.latencies, lat)
			t := &ph.loads
			t.ops++
			t.loads += rep.Loads
			t.bytes += rep.LoadedBytes
			if p.scheme == pask.PaSK {
				t.queries += rep.ReuseQueries
				t.hits += rep.ReuseHits
				t.lookups += rep.Lookups
			}
			if !w.gold.check(reportKey(p.sys.model, p.sys.device, string(p.scheme)), shaJSON(canonFromPublic(p.sys.device, rep))) {
				ph.failed++
			}
		}
		w.rounds++
		ph.windows = append(ph.windows, float64(len(pairs))/time.Since(r0).Seconds())
	}
	ph.elapsed = time.Since(start)
	ph.units = ph.attempted
	return ph, nil
}

func (w *coldstartWL) extras() map[string]metric {
	return map[string]metric{
		"coldstart.systems": {float64(len(w.systems)), "count"},
		"coldstart.rounds":  {float64(w.rounds), "count"},
	}
}

// checkStores prepares each system's model again, one at a time, and checks
// its code-object store's fingerprint: pask.System does not expose its store,
// and pask.NewSystem builds it with experiments.PrepareModel at batch 1.
func (w *coldstartWL) checkStores() error {
	for _, dev := range w.devices {
		prof, ok := device.ProfileByName(dev)
		if !ok {
			return fmt.Errorf("unknown device %q", dev)
		}
		for _, m := range w.models {
			ms, err := experiments.PrepareModel(m, 1, prof)
			if err != nil {
				return err
			}
			w.gold.check(storeKey(m, dev), fmt.Sprintf("%08x", ms.Store.Fingerprint()))
		}
	}
	return nil
}
