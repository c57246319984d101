package serving

import (
	"errors"
	"slices"
	"time"

	"pask/internal/faults"
	"pask/internal/trace"
)

// ErrShed marks a request rejected by admission control before it reached an
// instance: it had already waited past its queue deadline. Mapped to HTTP 429
// by internal/httpapi.
var ErrShed = errors.New("serving: request shed by admission control")

// ErrBreakerOpen marks a request rejected because its model's circuit
// breaker was open — the model's instances were failing consecutively and
// the fleet is giving them a cooldown instead of new work. Mapped to HTTP
// 503 by internal/httpapi.
var ErrBreakerOpen = errors.New("serving: circuit breaker open")

// AdmissionConfig bounds the virtual-time request queue in front of a
// scenario's instances. The zero value admits everything (the historical
// behavior).
type AdmissionConfig struct {
	// QueueDeadline sheds any request that has waited longer than this
	// before reaching an instance. 0 means no deadline.
	QueueDeadline time.Duration
}

func (a AdmissionConfig) enabled() bool { return a.QueueDeadline > 0 }

// backlog reports how many requests after index i have arrived by now — the
// queue standing behind the request being dispatched. Traces are sorted by
// arrival time, so the scan stops at the first future arrival.
func backlog(tr Trace, i int, now time.Duration) int {
	n := 0
	for j := i + 1; j < len(tr); j++ {
		if tr[j].At > now {
			break
		}
		n++
	}
	return n
}

// shouldShed applies the admission config to request i considered for
// dispatch at now, returning the shed verdict and the backlog it observed.
func (a AdmissionConfig) shouldShed(tr Trace, i int, now time.Duration) (bool, int) {
	depth := backlog(tr, i, now)
	return a.QueueDeadline > 0 && now-tr[i].At > a.QueueDeadline, depth
}

// ApplyFlood splices the plan's synthetic request flood into a trace: FloodN
// extra arrivals for the default model starting at FloodAt, FloodGap apart.
// The result is re-sorted by arrival time (stable, so the original requests
// keep their relative order among equal timestamps). Scenario entry points
// call this when the policy carries a fault plan with a flood.
func ApplyFlood(tr Trace, plan faults.Plan) Trace {
	if plan.FloodN <= 0 {
		return tr
	}
	out := make(Trace, 0, len(tr)+plan.FloodN)
	out = append(out, tr...)
	for i := 0; i < plan.FloodN; i++ {
		out = append(out, Request{At: plan.FloodAt + time.Duration(i)*plan.FloodGap})
	}
	slices.SortStableFunc(out, func(a, b Request) int {
		switch {
		case a.At < b.At:
			return -1
		case a.At > b.At:
			return 1
		}
		return 0
	})
	return out
}

// overloadGuard bundles a scenario run's overload protections: admission
// bounds, per-model circuit breakers and the brownout controller. A nil
// guard (policy with no overload config) is inert on every method, so the
// serving loops stay zero-cost for existing callers.
type overloadGuard struct {
	adm      AdmissionConfig
	brkCfg   BreakerConfig
	breakers map[string]*breaker
	ctrl     *brownout
	stats    *Stats
	rec      *trace.Recorder
}

// newOverloadGuard builds the guard for one scenario run and — when brownout
// is enabled — installs the controller as the policy's pressure source. The
// policy is mutated in place, so callers must construct the guard before any
// instance is created from the policy.
func newOverloadGuard(policy *Policy, stats *Stats) *overloadGuard {
	if !policy.Admission.enabled() && !policy.Breaker.enabled() && !policy.Brownout.Enabled {
		return nil
	}
	g := &overloadGuard{
		adm:      policy.Admission,
		brkCfg:   policy.Breaker,
		breakers: make(map[string]*breaker),
		stats:    stats,
		rec:      policy.Rec,
	}
	if policy.Brownout.Enabled {
		g.ctrl = newBrownout(policy.Brownout, stats, policy.Rec)
		policy.Options.Pressure = g.ctrl
	}
	return g
}

// admit decides request i's fate at dispatch time: nil to proceed, ErrShed
// when admission control drops it. The backlog observation also feeds the
// brownout controller, shed or not.
func (g *overloadGuard) admit(now time.Duration, tr Trace, i int) error {
	if g == nil {
		return nil
	}
	shed, depth := g.adm.shouldShed(tr, i, now)
	g.rec.Count("overload_queue_depth", now, float64(depth))
	if g.ctrl != nil {
		g.ctrl.observeDepth(now, depth)
	}
	if !shed {
		return nil
	}
	g.stats.recordShed(i)
	g.rec.Instant("overload", "shed", now)
	return ErrShed
}

// breaker returns the circuit breaker guarding the given model, creating it
// on first use. Nil when breakers are disabled.
func (g *overloadGuard) breaker(model string) *breaker {
	if g == nil || !g.brkCfg.enabled() {
		return nil
	}
	b, ok := g.breakers[model]
	if !ok {
		b = newBreaker(g.brkCfg, model, g.stats, g.rec)
		g.breakers[model] = b
	}
	return b
}

// reject records a breaker-open rejection for request idx.
func (g *overloadGuard) reject(now time.Duration, idx int) {
	g.stats.BreakerRejected++
	if g.stats.FailedRequests == nil {
		g.stats.FailedRequests = make(map[int]error)
	}
	g.stats.FailedRequests[idx] = ErrBreakerOpen
	g.rec.Instant("overload", "breaker_reject", now)
}

// observeSLO checks a served request's end-to-end latency against the
// policy's objective.
func (s *Stats) observeSLO(e2e, slo time.Duration) {
	if slo > 0 && e2e > slo {
		s.SLOMisses++
	}
}
