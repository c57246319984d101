package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// runAll runs every workload runs times, each run in a fresh child process
// of this binary, and writes each run's result line to
// <out>/<workload>-<run>.json, its detail metrics to <workload>-<run>.detail.json
// and its full output to <workload>-<run>.log. Run r uses seed+r, so a
// parent and a change given the same flags see the same inputs run for run,
// and so do an untraced and a traced set.
func runAll(runs int, out string, seed int64, seconds float64, traced int, goldenDir string) error {
	if out == "" {
		return fmt.Errorf("-workload all needs -out dir")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for r := 0; r < runs; r++ {
		for _, w := range workloadNames {
			var stdout bytes.Buffer
			base := filepath.Join(out, fmt.Sprintf("%s-%d", w, r))
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced), "-golden", goldenDir,
				"-detail-out", base+".detail.json")
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			if err := os.WriteFile(base+".log", stdout.Bytes(), 0o644); err != nil {
				return err
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			last := lines[len(lines)-1]
			if runErr != nil || !json.Valid([]byte(last)) {
				failed = append(failed, fmt.Sprintf("%s run %d: %v", w, r, runErr))
				continue
			}
			if err := os.WriteFile(base+".json", []byte(last+"\n"), 0o644); err != nil {
				return err
			}
			fmt.Printf("%s run %d: %s\n", w, r, last)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, "; "))
	}
	return nil
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var runFile = regexp.MustCompile(`^([a-z]+)-(\d+)\.json$`)

// loadRuns reads a directory written by runAll: workload -> metric -> the
// values in run order. A metric missing from a run's result line is taken
// from its detail file, so the end-to-end metrics of traced runs, which
// their result lines do not hold, compare with those of untraced runs.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type file struct {
		workload string
		run      int
		res      result
	}
	var files []file
	for _, e := range ents {
		m := runFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		detailPath := filepath.Join(dir, strings.TrimSuffix(e.Name(), ".json")+".detail.json")
		if data, err := os.ReadFile(detailPath); err == nil {
			var detail map[string]metric
			if err := json.Unmarshal(data, &detail); err != nil {
				return nil, fmt.Errorf("%s: %w", detailPath, err)
			}
			if res.Metrics == nil {
				res.Metrics = map[string]metric{}
			}
			for k, v := range detail {
				if _, ok := res.Metrics[k]; !ok {
					res.Metrics[k] = v
				}
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
		n, _ := strconv.Atoi(m[2])
		files = append(files, file{m[1], n, res})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].run < files[j].run })
	out := map[string]map[string][]float64{}
	for _, f := range files {
		if out[f.workload] == nil {
			out[f.workload] = map[string][]float64{}
		}
		for k, v := range f.res.Metrics {
			out[f.workload][k] = append(out[f.workload][k], v.Value)
		}
	}
	return out, nil
}

// minPairs is the fewest parent/change pairs a verdict other than worse
// rests on.
const minPairs = 10

// verdict applies the benchmark's rule to one (metric, workload): worse when
// the change's median is worse by more than the bound; unresolved when fewer
// than minPairs pairs ran; better when the change wins at least 9 of 10
// pairs and the medians differ by more than the parent's quartile spread;
// unresolved when the parent's own spread is wider than the bound and the
// change does not beat every parent run; else within bound.
func verdict(par, chg []float64, lowerBetter bool, bound float64) string {
	pm, cm := median(par), median(chg)
	if pm == 0 {
		return "unresolved"
	}
	better := func(c, p float64) bool { return (lowerBetter && c < p) || (!lowerBetter && c > p) }
	pairs, wins := min(len(par), len(chg)), 0
	for i := 0; i < pairs; i++ {
		if better(chg[i], par[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(par)
	worse := (cm - pm) / math.Abs(pm)
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range chg {
		for _, p := range par {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case worse > bound:
		return "worse"
	case pairs < minPairs:
		return "unresolved"
	case wins*10 >= 9*pairs && math.Abs(cm-pm) > q3-q1 && better(cm, pm):
		return "better"
	case (q3-q1)/math.Abs(pm) > bound && !allBetter:
		return "unresolved"
	}
	return "within bound"
}

// compareDirs prints, per (metric, workload), medians and quartiles of one
// result directory, or of a parent and a change with a verdict per
// end-to-end metric.
func compareDirs(dirs []string, boundsPath string, w io.Writer) error {
	if len(dirs) != 1 && len(dirs) != 2 {
		return fmt.Errorf("-compare takes parent/ [change/]")
	}
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	sets := make([]map[string]map[string][]float64, len(dirs))
	for i, d := range dirs {
		if sets[i], err = loadRuns(d); err != nil {
			return err
		}
	}
	all := append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...)
	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	stat := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%12.6g [%.6g, %.6g]", median(xs), q1, q3)
	}
	for _, wl := range workloadNames {
		for _, m := range all {
			par := sets[0][wl][m.Name]
			if len(par) == 0 {
				continue
			}
			if len(dirs) == 1 {
				q1, q3 := quartiles(par)
				spread := 0.0
				if med := median(par); med != 0 {
					spread = (q3 - q1) / math.Abs(med)
				}
				fmt.Fprintf(w, "%-10s %-36s %-6s n=%-3d %s spread %.4f\n", wl, m.Name, m.Unit, len(par), stat(par), spread)
				continue
			}
			chg := sets[1][wl][m.Name]
			if len(chg) == 0 {
				fmt.Fprintf(w, "%-10s %-36s missing in change\n", wl, m.Name)
				continue
			}
			v := "n/a"
			if e2e[m.Name] {
				v = verdict(par, chg, m.Better == "lower", m.Bound)
			}
			delta := 0.0
			if pm := median(par); pm != 0 {
				delta = 100 * (median(chg) - pm) / math.Abs(pm)
			}
			fmt.Fprintf(w, "%-10s %-36s %-6s parent %s change %s %+7.2f%% %s\n", wl, m.Name, m.Unit, stat(par), stat(chg), delta, v)
		}
	}
	return nil
}
