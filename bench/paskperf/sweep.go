package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"pask/internal/device"
	"pask/internal/experiments"
	_ "pask/internal/serving" // registers the serving experiments
)

// sweepWL runs every registered experiment except hostperf (whose tables
// report host time) at quick size, in registry order: the run a reader makes
// to reproduce the paper. Its set-ups are the work it measures, so code-object
// building and set-up memoisation show here.
type sweepWL struct {
	gold *digests
	cold *digests
	exps []*experiments.Experiment
	// last holds each experiment's host seconds from the latest pass.
	last map[string]float64
}

func newSweep(cfg config, g *goldens) (*sweepWL, error) {
	gold, err := g.get("sweep")
	if err != nil {
		return nil, err
	}
	cold, err := g.get("coldstart")
	if err != nil {
		return nil, err
	}
	w := &sweepWL{gold: gold, cold: cold, last: map[string]float64{}}
	want := map[string]bool{}
	for _, n := range cfg.experiments {
		want[n] = true
	}
	for _, e := range experiments.All() {
		if e.Name == "hostperf" || (len(want) > 0 && !want[e.Name]) {
			continue
		}
		w.exps = append(w.exps, e)
	}
	if len(w.exps) == 0 {
		return nil, fmt.Errorf("sweep: no experiments selected from %v", cfg.experiments)
	}
	return w, nil
}

// setUp prepares res on each device, twice: the set-up unit the experiments
// repeat at every PrepareModel call site. Each store must match the
// coldstart golden's fingerprint. The sweep itself holds no state.
func (w *sweepWL) setUp(tr *tracer) ([]time.Duration, error) {
	var units []time.Duration
	for i, prof := range append(device.Profiles(), device.Profiles()...) {
		id := tr.begin("experiments.PrepareModel", "setup", -1, int64(i))
		t0 := time.Now()
		ms, err := experiments.PrepareModel("res", 1, prof)
		units = append(units, time.Since(t0))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		w.cold.check(storeKey("res", prof.Name), fmt.Sprintf("%08x", ms.Store.Fingerprint()))
	}
	return units, nil
}

// digestResult hashes every table's CSV and the result's envelope JSON.
func digestResult(name string, res *experiments.Result) (string, error) {
	h := sha256.New()
	for _, t := range res.Tables {
		h.Write([]byte(t.CSV()))
	}
	env, err := json.Marshal(experiments.NewEnvelope(name, res))
	if err != nil {
		return "", err
	}
	h.Write(env)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// measure runs whole passes, at least one, and starts another only when a
// pass as long as the last still ends within d. The operation is a pass:
// experiments differ in length by five orders of magnitude, so percentiles
// over single experiments would jump between neighbours. A pass's time is
// the sum of its experiments' run times; checking their output is not timed.
func (w *sweepWL) measure(d time.Duration, tr *tracer, root int) (phase, error) {
	var ph phase
	start := time.Now()
	var last time.Duration
	for pass := 0; pass == 0 || time.Since(start)+last <= d; pass++ {
		last = 0
		for _, e := range w.exps {
			ph.attempted++
			id := tr.begin("experiments."+e.Name, "measure", root, int64(pass))
			t0 := time.Now()
			res, err := e.Run(experiments.Options{Quick: true})
			lat := time.Since(t0)
			tr.end(id)
			if err != nil {
				return ph, fmt.Errorf("%s: %w", e.Name, err)
			}
			last += lat
			w.last[e.Name] = lat.Seconds()
			dg, err := digestResult(e.Name, res)
			if err != nil {
				return ph, err
			}
			if !w.gold.check(e.Name, dg) {
				ph.failed++
			}
		}
		ph.latencies = append(ph.latencies, last)
		ph.elapsed += last
		ph.units++
	}
	return ph, nil
}

func (w *sweepWL) extras() map[string]metric {
	out := map[string]metric{}
	for n, s := range w.last {
		out["sweep."+n+"_s"] = metric{s, "s"}
	}
	return out
}
