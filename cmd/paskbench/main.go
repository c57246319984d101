// Command paskbench regenerates every table and figure of the paper's
// evaluation on the simulated stack, plus this implementation's own
// systems experiments, through the shared experiment registry.
//
// Usage:
//
//	paskbench [-exp list|all|<name>]
//	          [-models alex,vgg,...] [-batches 1,4,16,64,128] [-quick]
//	          [-faults "transient=0.1,permanent=0.02,seed=7"]
//	          [-trace out.json] [-validate-trace file.json] [-out BENCH_<name>.json]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -exp list prints the registered experiment menu with one-line
// descriptions; -exp all runs the paper-figure sweep; any other name
// dispatches that experiment through the registry with the uniform
// options (-quick shrinks it to CI smoke size, -models/-batches narrow
// the selection where the experiment honors them).
//
// Experiments with a machine-readable payload (warmup, cacheimage,
// overload, placement, predictive, ...) write it to -out — default
// BENCH_<name>.json — wrapped in the versioned result envelope
// {"schema": 1, "experiment": ..., "result": ...}. With -trace the run's
// timeline is exported as Chrome trace_event JSON, loadable in
// ui.perfetto.dev; -validate-trace checks such a file's structural
// invariants and prints its summary, then exits.
//
// -faults runs a single chaos cell instead of an experiment: the spec is
// a fault plan in the faults package's grammar (a key outside it is an
// error), and the cell serves the first -models entry (default res) at the
// first -batches entry on MI100. The cell runs at the plan's transient and
// permanent rates, and its other keys (seed, burst, spike, spike_ms,
// disable, reset_ms, slow_*, flood_*) reach it too. The cell is one
// instance on one GPU; the grammar has no cache-image or host-level keys.
//
// -cpuprofile and -memprofile write host pprof profiles of the selected
// run (an experiment, the -exp all sweep or a -faults cell), the same files
// `go test -cpuprofile/-memprofile` writes; read them with `go tool pprof`.
// A run that fails leaves no usable profile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pask/internal/experiments"
	"pask/internal/faults"
	"pask/internal/serving"
	"pask/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+usageMenu())
	modelsFlag := flag.String("models", "", "comma-separated model abbreviations (default: all twelve)")
	batchesFlag := flag.String("batches", "", "comma-separated batch sizes (default: experiment-specific)")
	format := flag.String("format", "table", "output format: table or csv")
	faultsFlag := flag.String("faults", "", "fault-injection spec; runs one chaos cell (see package doc for keys)")
	quick := flag.Bool("quick", false, "shrink experiment configurations to CI smoke size")
	traceOut := flag.String("trace", "", "write the run's Chrome trace_event JSON here")
	benchOut := flag.String("out", "", "write the machine-readable result envelope here (default BENCH_<exp>.json for bench experiments)")
	validateTrace := flag.String("validate-trace", "", "validate a Chrome trace JSON file, print its summary and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the run here")
	memProfile := flag.String("memprofile", "", "write a host allocation profile of the run here")
	flag.Parse()
	formatCSV = *format == "csv"

	if *validateTrace != "" {
		if err := runValidateTrace(*validateTrace); err != nil {
			fatal(err)
		}
		return
	}

	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			fatal(err)
		}
	}()

	if *exp == "list" && *faultsFlag == "" {
		printMenu()
		return
	}

	opts := experiments.Options{Quick: *quick}
	if *modelsFlag != "" {
		opts.Models = strings.Split(*modelsFlag, ",")
	}
	if *batchesFlag != "" {
		for _, b := range strings.Split(*batchesFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(b))
			if err != nil {
				fatal(fmt.Errorf("bad batch %q: %w", b, err))
			}
			opts.Batches = append(opts.Batches, v)
		}
	}

	if *faultsFlag != "" {
		plan, err := faults.ParsePlan(*faultsFlag)
		if err != nil {
			fatal(err)
		}
		res, err := serving.Chaos(opts, &plan)
		if err != nil {
			fatal(err)
		}
		show(res.Tables[0])
		return
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			if !e.InAll {
				continue
			}
			// The sweep prints tables only: no bench files, no traces.
			if err := runExperiment(e, opts, "", ""); err != nil {
				fatal(fmt.Errorf("%s: %w", e.Name, err))
			}
		}
		return
	}

	e, ok := experiments.Lookup(*exp)
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q; -exp list prints the menu (%s)",
			*exp, strings.Join(experiments.Names(), ", ")))
	}
	if err := runExperiment(e, opts, *benchOut, *traceOut); err != nil {
		fatal(fmt.Errorf("%s: %w", e.Name, err))
	}
}

// usageMenu is the -exp flag's menu text, generated from the registry so
// the usage string can't drift from the registered names.
func usageMenu() string {
	return "list, all, " + strings.Join(experiments.Names(), ", ")
}

// printMenu prints the registered experiments with their descriptions.
func printMenu() {
	fmt.Println("registered experiments (-exp <name>):")
	for _, e := range experiments.All() {
		tags := ""
		if e.InAll {
			tags += " [all]"
		}
		if e.Bench {
			tags += " [bench: " + e.DefaultOut() + "]"
		}
		fmt.Printf("  %-15s %s%s\n", e.Name, e.Description, tags)
	}
}

// runExperiment dispatches one registered experiment: run, print tables,
// write the envelope to out (defaulted for bench experiments) and export
// the trace.
func runExperiment(e *experiments.Experiment, opts experiments.Options, out, traceOut string) error {
	var rec *trace.Recorder
	if traceOut != "" {
		rec = trace.New()
		opts.Trace = rec
	}
	res, err := e.Run(opts)
	if err != nil {
		return err
	}
	for _, tbl := range res.Tables {
		show(tbl)
	}
	if out == "" && e.Bench {
		out = e.DefaultOut()
	}
	if out != "" && res.Bench != nil {
		data, err := json.MarshalIndent(experiments.NewEnvelope(e.Name, res), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nbench payload written to %s\n", out)
	}
	if rec != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", traceOut)
	}
	return nil
}

// startProfiles starts a CPU profile into cpuOut and returns the function
// that stops it and writes the allocation profile to memOut. An empty path
// skips that profile.
func startProfiles(cpuOut, memOut string) (stop func() error, err error) {
	var cpu *os.File
	if cpuOut != "" {
		if cpu, err = os.Create(cpuOut); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memOut == "" {
			return nil
		}
		f, err := os.Create(memOut)
		if err != nil {
			return err
		}
		runtime.GC() // flush the allocations of the last cycle into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// runValidateTrace checks a Chrome trace JSON file's structural invariants
// and prints its summary.
func runValidateTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum, err := trace.ValidateChrome(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: OK — %d events (%d spans, %d counter series) on %d tracks %v, %.2fms span\n",
		path, sum.Events, sum.Spans, sum.Counters, len(sum.Tracks), sum.Tracks, sum.MaxTs/1e3)
	return nil
}

var formatCSV bool

func show(tbl *experiments.Table) {
	if formatCSV {
		fmt.Printf("# %s — %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
		return
	}
	fmt.Println(tbl)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paskbench:", err)
	os.Exit(1)
}
