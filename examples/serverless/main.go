// Serverless: the scale-out scenario that motivates the paper (§I). A
// request spike (a burst trace on an uncapped fleet) forces N fresh
// instances to cold start simultaneously; the example compares the
// per-instance time from arrival to completion, process bring-up included,
// under Baseline vs PASK, then serves a Poisson trace on one instance with
// §VI background loading filling the idle gaps.
//
// Run with:
//
//	go run ./examples/serverless [model]
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/serving"
)

func main() {
	model := "res"
	if len(os.Args) > 1 {
		model = os.Args[1]
	}
	ms, err := experiments.PrepareModel(model, 1, device.MI100())
	if err != nil {
		log.Fatal(err)
	}
	setups := map[string]*experiments.ModelSetup{model: ms}

	fmt.Printf("== serverless scale-out: 8 cold instances of %s ==\n", model)
	for _, scheme := range []core.Scheme{core.SchemeBaseline, core.SchemeNNV12, core.SchemePaSK} {
		stats, err := serving.ServeFleetModels(setups, model, serving.FleetConfig{
			Policy: serving.Policy{Scheme: scheme},
		}, serving.BurstTrace(8))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s cold start p50=%7.1fms p99=%7.1fms (x%d instances)\n",
			scheme, ms2(stats.Percentile(0.5)), ms2(stats.Percentile(0.99)), stats.ColdStarts)
	}

	fmt.Printf("\n== autoscaled fleet: 30-request trace, keep-alive 2s, max 4 instances ==\n")
	fleetTrace := serving.PoissonTrace(30, 250*time.Millisecond, 9)
	for _, scheme := range []core.Scheme{core.SchemeBaseline, core.SchemePaSK} {
		stats, err := serving.ServeFleetModels(setups, model, serving.FleetConfig{
			Policy:       serving.Policy{Scheme: scheme},
			KeepAlive:    2 * time.Second,
			MaxInstances: 4,
		}, fleetTrace)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s spawned=%d reaped=%d cold=%d  p50=%7.2fms  p99=%7.2fms\n",
			scheme, stats.Spawned, stats.Reaped, stats.ColdStarts,
			ms2(stats.Percentile(0.5)), ms2(stats.Percentile(0.99)))
	}

	fmt.Printf("\n== 20-request Poisson trace (mean gap 800ms), one instance ==\n")
	trace := serving.PoissonTrace(20, 800*time.Millisecond, 42)
	for _, bg := range []bool{false, true} {
		stats, err := serving.ServeTrace(ms, serving.Policy{Scheme: core.SchemePaSK, BackgroundLoad: bg}, trace, 0)
		if err != nil {
			log.Fatal(err)
		}
		label := "PaSK"
		if bg {
			label = "PaSK+bg-load"
		}
		fmt.Printf("%-13s cold=%7.1fms  warm p50=%6.2fms  p99=%6.2fms  bg loads=%d\n",
			label, ms2(stats.Latencies[0]), ms2(stats.Percentile(0.5)),
			ms2(stats.Percentile(0.99)), stats.BGLoads)
	}
}

func ms2(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
