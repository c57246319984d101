package experiments

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/trace"
)

// TestColdStartSpanCausality checks the paper's pipeline dependencies
// (§III-A) on every (model, device, scheme) cold start, over the spans a
// trace recorder observes from the process's tracer:
//   - spans on one thread are disjoint or nested: a host thread does one
//     thing at a time;
//   - Report.Breakdown sums exactly to Report.Total;
//   - every issue:<layer> span starts no earlier than parse:<layer> ends: a
//     layer is issued only after it is parsed;
//   - every issue span naming a solution ends no earlier than the load of
//     that solution's code object: a kernel launches only once its object is
//     resident, or is one of the library's residents, mapped when it opens.
//     (The end, not the start: Baseline's reactive load runs inside its issue
//     span, the paper's lazy-loading cold start);
//   - Report.Total is at least the critical-path lower bound: the busy time
//     of the busiest host thread and the GPU's busy time, each the union of
//     its spans that start in the run. A thread cannot do more than Total's
//     worth of work inside the window, and work that spills past its end
//     means Total stopped the clock early.
func TestColdStartSpanCausality(t *testing.T) {
	var issues, named int
	for _, prof := range device.Profiles() {
		for _, abbr := range AllModelAbbrs() {
			ms, err := PrepareModel(abbr, 1, prof)
			if err != nil {
				t.Fatal(err)
			}
			resident := map[string]bool{}
			for _, inst := range ms.Reg.Residents() {
				resident[inst.Path()] = true
			}
			for _, sch := range core.Schemes() {
				rec := trace.New()
				wr, err := ms.RunSchemeOn(ms.NewProcess(), sch, core.Options{}, rec, nil, false)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", abbr, prof.Name, sch, err)
				}
				run := abbr + "/" + prof.Name + "/" + string(sch)
				var sum time.Duration
				for _, d := range wr.Rep.Breakdown {
					sum += d
				}
				if sum != wr.Rep.Total {
					t.Errorf("%s: breakdown sums to %v, Total is %v", run, sum, wr.Rep.Total)
				}
				i, n := checkCausality(t, run, rec.Spans(), resident)
				issues += i
				named += n
				checkBusyBound(t, run, rec.Spans(), wr.TTFI-wr.Rep.Total, wr.Rep.Total)
			}
		}
	}
	// The rules must have had something to bite on.
	t.Logf("checked %d issue spans, %d naming a solution", issues, named)
	if issues == 0 || named == 0 {
		t.Fatal("no issue span to check")
	}
}

// checkCausality applies the span rules of TestColdStartSpanCausality to one
// run's spans, given the paths of the library's residents, and returns how
// many issue spans it checked and how many of them named a solution.
func checkCausality(t *testing.T, run string, spans []metrics.Span, resident map[string]bool) (issues, named int) {
	t.Helper()
	threads := map[string][]metrics.Span{}
	parsed := map[string]time.Duration{}
	loaded := map[string]time.Duration{}
	for _, s := range spans {
		threads[s.Thread] = append(threads[s.Thread], s)
		if layer, ok := strings.CutPrefix(s.Name, "parse:"); ok {
			if _, dup := parsed[layer]; !dup {
				parsed[layer] = s.End
			}
		}
		if s.Cat == metrics.CatLoad && !hasAttr(s, "error") {
			if _, dup := loaded[s.Name]; !dup {
				loaded[s.Name] = s.End
			}
		}
	}

	for thread, ss := range threads {
		slices.SortStableFunc(ss, func(a, b metrics.Span) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(b.End, a.End))
		})
		var open []metrics.Span // enclosing spans, outermost first
		for _, s := range ss {
			for len(open) > 0 && open[len(open)-1].End <= s.Start {
				open = open[:len(open)-1]
			}
			if len(open) > 0 && s.End > open[len(open)-1].End {
				t.Errorf("%s: on thread %q, %s [%v, %v] overlaps %s [%v, %v] without nesting",
					run, thread, s.Name, s.Start, s.End, open[len(open)-1].Name, open[len(open)-1].Start, open[len(open)-1].End)
			}
			open = append(open, s)
		}
	}

	for _, s := range spans {
		layer, ok := strings.CutPrefix(s.Name, "issue:")
		if !ok {
			continue
		}
		issues++
		if end, ok := parsed[layer]; !ok {
			t.Errorf("%s: %s issued but never parsed", run, layer)
		} else if s.Start < end {
			t.Errorf("%s: %s issued at %v, before its parse ended at %v", run, layer, s.Start, end)
		}
		for _, a := range s.Attrs {
			if a.Key != "solution" {
				continue
			}
			named++
			if resident[a.Value] {
				continue
			}
			if end, ok := loaded[a.Value]; !ok {
				t.Errorf("%s: %s launches %s, which was never loaded", run, layer, a.Value)
			} else if s.End < end {
				t.Errorf("%s: %s issue ended at %v, before %s finished loading at %v", run, layer, s.End, a.Value, end)
			}
		}
	}
	return issues, named
}

// checkBusyBound checks the critical-path lower bound of one run that
// started at t0 and took total: no host thread, and not the GPU, is busy
// for longer than total over the spans that start at or after t0.
func checkBusyBound(t *testing.T, run string, spans []metrics.Span, t0, total time.Duration) {
	t.Helper()
	threads := map[string][]metrics.Span{}
	for _, s := range spans {
		if s.Start >= t0 {
			threads[s.Thread] = append(threads[s.Thread], s)
		}
	}
	var hostThread string
	var host, gpu time.Duration
	for thread, ss := range threads {
		busy := busyTime(ss)
		switch {
		case thread == "gpu":
			gpu = busy
		case busy > host:
			host, hostThread = busy, thread
		}
	}
	if host == 0 || gpu == 0 {
		t.Errorf("%s: host busy %v, GPU busy %v; want both positive", run, host, gpu)
	}
	if host > total {
		t.Errorf("%s: thread %q busy for %v, more than Total %v", run, hostThread, host, total)
	}
	if gpu > total {
		t.Errorf("%s: GPU busy for %v, more than Total %v", run, gpu, total)
	}
}

// busyTime returns the length of the union of the spans' intervals.
func busyTime(ss []metrics.Span) time.Duration {
	slices.SortFunc(ss, func(a, b metrics.Span) int { return cmp.Compare(a.Start, b.Start) })
	var busy, end time.Duration
	for _, s := range ss {
		start := max(s.Start, end)
		if s.End > start {
			busy += s.End - start
			end = s.End
		}
	}
	return busy
}

func hasAttr(s metrics.Span, key string) bool {
	return slices.ContainsFunc(s.Attrs, func(a metrics.Attr) bool { return a.Key == key })
}
