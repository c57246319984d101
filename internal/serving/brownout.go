package serving

import (
	"pask/internal/core"
	"pask/internal/trace"

	"time"
)

// The brownout controller's queue-depth thresholds. When the request queue
// deepens, the controller raises the pressure level PASK's per-layer
// decision consults, so layers run on already-loaded generic solutions
// instead of issuing new code-object loads — the paper's §III-B reuse trade
// pushed further while the fleet is drowning, relaxed again as the queue
// drains.
const (
	// brownoutEnterDepth is the backlog at which pressure rises to Elevated.
	// Pressure relaxes one level once the backlog falls to
	// brownoutEnterDepth/2 or below — the hysteresis band up to the enter
	// depth keeps the controller from flapping on every arrival.
	brownoutEnterDepth = 2
	// brownoutSevereDepth is the backlog at which pressure rises to Severe.
	brownoutSevereDepth = 4
)

// brownout implements core.PressureSource over the queue-depth observations
// made at the scenarios' dispatch points. Levels rise as far as the
// observation demands immediately, but relax only one level per observation
// at or below brownoutEnterDepth/2 — draining a severe brownout passes
// through elevated first, so the load-avoidance that is emptying the queue
// is not switched off the moment the first gap appears.
type brownout struct {
	stats *Stats
	rec   *trace.Recorder

	level core.PressureLevel
}

func newBrownout(stats *Stats, rec *trace.Recorder) *brownout {
	return &brownout{stats: stats, rec: rec}
}

// Pressure implements core.PressureSource.
func (b *brownout) Pressure() core.PressureLevel { return b.level }

// observeDepth folds one backlog observation into the controller.
func (b *brownout) observeDepth(now time.Duration, depth int) {
	target := b.level
	switch {
	case depth >= brownoutSevereDepth:
		target = core.PressureSevere
	case depth >= brownoutEnterDepth:
		if target < core.PressureElevated {
			target = core.PressureElevated
		}
	case depth <= brownoutEnterDepth/2:
		if target > core.PressureNominal {
			target--
		}
	}
	b.setLevel(now, target)
}

func (b *brownout) setLevel(now time.Duration, to core.PressureLevel) {
	if to == b.level {
		return
	}
	if b.level == core.PressureNominal && to > core.PressureNominal {
		b.stats.BrownoutEnters++
	}
	b.level = to
	if int(to) > b.stats.PressurePeak {
		b.stats.PressurePeak = int(to)
	}
	if b.rec != nil {
		b.rec.Count("brownout_pressure", now, float64(to))
		b.rec.Instant("overload", "pressure:"+to.String(), now)
	}
}
