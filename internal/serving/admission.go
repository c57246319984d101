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

// shedQueueDeadline is the admission bound FleetConfig.Shedding applies: a
// request that has waited longer than this before reaching an instance is
// shed. It is roughly the overload experiment's SLO minus a warm service
// time, so admitted requests can still make the objective.
const shedQueueDeadline = 240 * time.Millisecond

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

// shouldShed reports whether request i, considered for dispatch at now, has
// outwaited shedQueueDeadline, and the backlog it observed.
func shouldShed(tr Trace, i int, now time.Duration) (bool, int) {
	return now-tr[i].At > shedQueueDeadline, backlog(tr, i, now)
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

// overloadGuard bundles a fleet run's overload protections: admission
// bounds and per-model circuit breakers (FleetConfig.Shedding) and the
// brownout controller (FleetConfig.Brownout). A nil guard (neither switch
// on) is inert on every method, so the dispatcher stays zero-cost for
// unprotected fleets.
type overloadGuard struct {
	shedding bool
	seed     int64 // breaker cooldown jitter stream (FT.BackoffSeed)
	breakers map[string]*breaker
	ctrl     *brownout
	stats    *Stats
	rec      *trace.Recorder
}

// newOverloadGuard builds the guard for one fleet run and — when brownout
// is enabled — installs the controller as the policy's pressure source. The
// config is mutated in place, so callers must construct the guard before any
// instance is created from its policy.
func newOverloadGuard(cfg *FleetConfig, stats *Stats) *overloadGuard {
	if !cfg.Shedding && !cfg.Brownout {
		return nil
	}
	g := &overloadGuard{
		shedding: cfg.Shedding,
		seed:     cfg.Policy.FT.BackoffSeed,
		breakers: make(map[string]*breaker),
		stats:    stats,
		rec:      cfg.Policy.Rec,
	}
	if cfg.Brownout {
		g.ctrl = newBrownout(stats, cfg.Policy.Rec)
		cfg.Policy.Options.Pressure = g.ctrl
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
	shed, depth := shouldShed(tr, i, now)
	g.rec.Count("overload_queue_depth", now, float64(depth))
	if g.ctrl != nil {
		g.ctrl.observeDepth(now, depth)
	}
	if !g.shedding || !shed {
		return nil
	}
	g.stats.recordShed(i)
	g.rec.Instant("overload", "shed", now)
	return ErrShed
}

// breaker returns the circuit breaker guarding the given model, creating it
// on first use. Nil when shedding is off.
func (g *overloadGuard) breaker(model string) *breaker {
	if g == nil || !g.shedding {
		return nil
	}
	b, ok := g.breakers[model]
	if !ok {
		b = newBreaker(model, g.seed, g.stats, g.rec)
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
// fleet's objective.
func (s *Stats) observeSLO(e2e, slo time.Duration) {
	if slo > 0 && e2e > slo {
		s.SLOMisses++
	}
}
