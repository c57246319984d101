package trace

import (
	"io"
	"strconv"
	"testing"
	"time"

	"pask/internal/metrics"
)

// coldStartRecorder builds a synthetic recording shaped like a PaSK cold
// start of ResNet on the MI100, scaled to 1,000 spans: per layer a parse, an
// issue naming its solution and a GPU kernel, a load for every fourth layer,
// plus run instants and the queue and residency counter series.
func coldStartRecorder() *Recorder {
	const us = time.Microsecond
	solutions := []string{"ConvDirectTiledFwd_f32.pko", "ConvAsm1x1U.pko", "GemmFwd_f32.pko", "PoolingFwd.pko"}
	r := New()
	r.Instant("run", "run-start", 0,
		metrics.Attr{Key: "scheme", Value: "PaSK"}, metrics.Attr{Key: "model", Value: "res"}, metrics.Attr{Key: "batch", Value: "1"})
	r.Span("loader", metrics.CatCopy, "weights-h2d", 0, 3377024)
	const layers = 286
	for i := 0; i < layers; i++ {
		layer := "layer" + strconv.Itoa(i)
		sol := solutions[i%len(solutions)]
		at := 3400*us + time.Duration(i)*60*us
		r.Span("pask-parser", metrics.CatParse, "parse:"+layer, at, at+60*us)
		r.Count("pask_parsed_queue", at, float64(i%3))
		if i%4 == 0 {
			r.Span("pask-loader", metrics.CatLoad, "load:"+sol, at, at+41*us+512,
				metrics.Attr{Key: "solution", Value: sol}, metrics.Attr{Key: "hit", Value: "false"})
			r.Count("hip_resident_bytes", at+41*us, float64(1048576*(i/4+1)))
		}
		r.Span("pask-issuer", metrics.CatLaunch, "issue:"+layer, at+60*us, at+85*us, metrics.Attr{Key: "solution", Value: sol})
		r.Count("pask_issue_queue", at+60*us, float64(i%2))
		r.Span("gpu", metrics.CatExec, sol[:len(sol)-4]+"_main", at+85*us, at+85*us+109058)
		r.Count("sim_event_queue", at+85*us, float64(i%5))
	}
	r.Instant("pask-parser", "milestone", 3400*us, metrics.Attr{Key: "eager_layers", Value: "2"})
	r.Instant("run", "run-end", 3400*us+layers*60*us+200*us+503)
	return r
}

func BenchmarkWriteChrome(b *testing.B) {
	r := coldStartRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPromFlush builds and flushes a page shaped like pasksrv's
// /metrics: the latest run's recorder snapshot and one report per scheme
// for each of 12 models.
func BenchmarkPromFlush(b *testing.B) {
	r := coldStartRecorder()
	reps := make([]*metrics.Report, 0, 72)
	for m := 0; m < 12; m++ {
		for _, scheme := range []string{"Baseline", "NNV12", "PaSK", "PaSK-I", "PaSK-B", "PaSK-P"} {
			reps = append(reps, &metrics.Report{
				Scheme: scheme, Model: "model" + strconv.Itoa(m), Batch: 1,
				Total: time.Duration(m+1) * 31987 * time.Microsecond, GPUBusy: 5 * time.Millisecond,
				Loads: 46, LoadedBytes: 6690247, ReuseQueries: 92, ReuseHits: 46, SkippedLoads: 46,
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPromWriter()
		r.AppendPrometheus(p)
		for _, rep := range reps {
			ReportMetrics(p, rep)
		}
		if err := p.Flush(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
