package traffic

import (
	"time"
)

// RateEstimator tracks an arrival stream's rate online with two sliding
// windows over the most recent arrivals: a fast window that follows the
// instantaneous rate and a slow window that serves as the baseline. When
// the fast rate exceeds the slow one by Factor, the stream is ramping —
// the onset of a flash crowd — which is the signal the predictive
// prefetcher uses to prewarm instances before the peak.
//
// Window sizes are in arrivals, not time: the rate over the last k
// arrivals is k divided by the span they cover, whose relative error
// shrinks as 1/sqrt(k). That keeps false onsets on a steady Poisson
// stream vanishingly rare while a real surge moves the fast window within
// a handful of crowd arrivals.
type RateEstimator struct {
	fastN, slowN int
	factor       float64

	times []time.Duration // ring buffer of the last slowN+1 arrival stamps
	head  int
	n     int
}

// NewRateEstimator returns an estimator with the given fast/slow window
// sizes (in arrivals) and onset factor. Non-positive values get defaults
// (32, 256, 2.0).
func NewRateEstimator(fastN, slowN int, factor float64) *RateEstimator {
	if fastN <= 0 {
		fastN = 32
	}
	if slowN <= fastN {
		slowN = 8 * fastN
	}
	if factor <= 1 {
		factor = 2
	}
	return &RateEstimator{fastN: fastN, slowN: slowN, factor: factor,
		times: make([]time.Duration, slowN+1)}
}

// Observe feeds one arrival timestamp. Timestamps must be non-decreasing.
func (e *RateEstimator) Observe(at time.Duration) {
	e.times[e.head] = at
	e.head = (e.head + 1) % len(e.times)
	e.n++
}

// rateOver returns the arrival rate (requests/second) over the last k
// inter-arrival spans, or 0 while fewer than k+1 arrivals were observed.
func (e *RateEstimator) rateOver(k int) float64 {
	if e.n < k+1 {
		return 0
	}
	newest := e.times[(e.head-1+len(e.times))%len(e.times)]
	oldest := e.times[(e.head-1-k+len(e.times))%len(e.times)]
	span := newest - oldest
	if span <= 0 {
		span = time.Nanosecond
	}
	return float64(k) / span.Seconds()
}

// Rate returns the fast (current) rate estimate in requests per second.
func (e *RateEstimator) Rate() float64 { return e.rateOver(e.fastN) }

// Baseline returns the slow (baseline) rate estimate. Until the slow
// window fills it covers whatever history exists beyond the fast window.
func (e *RateEstimator) Baseline() float64 {
	k := e.slowN
	if e.n <= k {
		k = e.n - 1
	}
	if k <= e.fastN {
		return 0
	}
	return e.rateOver(k)
}

// Onset reports whether the stream is ramping: the fast rate exceeds the
// baseline by the configured factor. It is a level signal; callers that
// want a single trigger should act on the rising edge.
func (e *RateEstimator) Onset() bool {
	base := e.Baseline()
	return base > 0 && e.Rate() >= e.factor*base
}
