package serving

import (
	"fmt"
	"hash/fnv"
	"time"

	"pask/internal/sim"
	"pask/internal/trace"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes requests through (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects every request until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets probe requests through; a success closes the
	// breaker, a failure reopens it with a longer cooldown.
	BreakerHalfOpen
)

// String names the state for trace attributes.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// The per-model circuit breakers FleetConfig.Shedding turns on.
const (
	// breakerThreshold is the number of consecutive request failures (serve
	// errors or deadline overruns from the FaultTolerance machinery) that
	// trips a breaker open.
	breakerThreshold = 3
	// breakerCooldown is the base open→half-open wait. Repeated trips back
	// off exponentially from it, capped at 8×breakerCooldown, with
	// deterministic seeded jitter — the same capped-backoff policy
	// FaultTolerance retries use. One probe success in half-open closes the
	// breaker again.
	breakerCooldown = 25 * time.Millisecond
)

// expBackoff returns base·2^attempt capped at max, with a deterministic
// ±25% jitter drawn from (seed, key, attempt) — the same FNV construction
// the fault injector uses, so identical configurations replay identical
// waits in virtual time while distinct keys desynchronize (no thundering
// herd of simultaneous retries).
func expBackoff(base, max time.Duration, attempt int, seed int64, key string) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, key, attempt)
	frac := float64(h.Sum64()>>11) / float64(1<<53) // uniform in [0,1)
	return d + time.Duration((frac-0.5)*0.5*float64(d))
}

// backoff is one retry loop's schedule over expBackoff: the base wait, its
// cap, the attempt index of the first wait, and the jitter stream.
type backoff struct {
	base, max time.Duration
	offset    int
	seed      int64
	key       string
}

// retry calls attempt(0), attempt(1), ... at most n times, until one
// succeeds or reports its failure not retriable, and returns the last
// error. Each retriable failure counts one retry and waits out the backoff,
// so an attempt that wants no wait after it must report false.
func (b backoff) retry(p *sim.Proc, n int, retries *int, attempt func(i int) (retriable bool, err error)) error {
	var err error
	for i := 0; i < n; i++ {
		var again bool
		if again, err = attempt(i); err == nil || !again {
			return err
		}
		*retries++
		p.Sleep(expBackoff(b.base, b.max, b.offset+i, b.seed, b.key))
	}
	return err
}

// breaker is one model's circuit over the shared runtime: closed→open on
// breakerThreshold consecutive failures, open→half-open after a deterministic
// cooldown, half-open→closed on a probe success (or back to open on a probe
// failure, with a longer cooldown). All transitions happen at
// request-dispatch points, so breaker state is a pure function of the
// virtual-time request/outcome sequence — same seed, same transitions.
type breaker struct {
	model string
	seed  int64
	stats *Stats
	rec   *trace.Recorder

	state    BreakerState
	fails    int // consecutive failures while closed or half-open
	streak   int // consecutive trips without an intervening close (backoff exponent)
	reopenAt time.Duration
}

func newBreaker(model string, seed int64, stats *Stats, rec *trace.Recorder) *breaker {
	return &breaker{model: model, seed: seed, stats: stats, rec: rec}
}

// transition moves the breaker and emits the counter/instant trail the
// Chrome trace and /metrics surfaces read.
func (b *breaker) transition(now time.Duration, to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if b.rec != nil {
		b.rec.Count("breaker_state:"+b.model, now, float64(to))
		b.rec.Instant("overload", "breaker:"+b.model+":"+to.String(), now)
	}
	switch to {
	case BreakerOpen:
		b.stats.BreakerTrips++
	case BreakerClosed:
		b.stats.BreakerRecoveries++
	}
}

// allow reports whether a request may pass at now, performing the
// open→half-open transition when the cooldown has elapsed.
func (b *breaker) allow(now time.Duration) bool {
	if b == nil {
		return true
	}
	switch b.state {
	case BreakerOpen:
		if now < b.reopenAt {
			return false
		}
		b.transition(now, BreakerHalfOpen)
		return true
	default:
		return true
	}
}

// observe folds one request outcome into the breaker.
func (b *breaker) observe(now time.Duration, err error) {
	if b == nil {
		return
	}
	if err == nil {
		b.fails = 0
		if b.state == BreakerHalfOpen {
			b.streak = 0
			b.transition(now, BreakerClosed)
		}
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= breakerThreshold {
		b.trip(now)
	}
}

// trip opens the breaker with the streak's capped-exponential cooldown.
func (b *breaker) trip(now time.Duration) {
	cool := expBackoff(breakerCooldown, 8*breakerCooldown, b.streak, b.seed, b.model)
	b.streak++
	b.fails = 0
	b.reopenAt = now + cool
	b.transition(now, BreakerOpen)
}
