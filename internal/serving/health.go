package serving

import (
	"fmt"
	"time"

	"pask/internal/backend"
	"pask/internal/sim"
	"pask/internal/trace"
)

// GPUHealthState is one GPU's position on the failure ladder the health
// monitor walks: healthy → degraded → quarantined → dead, with probation
// and rejoin on recovery (DESIGN.md §17).
type GPUHealthState int

const (
	// GPUHealthy: the device serves normally and accepts placements.
	GPUHealthy GPUHealthState = iota
	// GPUDegraded: error or latency signals crossed the threshold this
	// tick. The device still serves and accepts placements, but persistent
	// degradation escalates to quarantine.
	GPUDegraded
	// GPUQuarantined: degradation persisted; tenants evacuate and placement
	// skips the device. A quarantined GPU that stays clean through its
	// probation rejoins as healthy — hardware brownouts often pass.
	GPUQuarantined
	// GPUDead: the device fell off the bus. Terminal.
	GPUDead
)

// String names the state for tables, traces and the health endpoint.
func (s GPUHealthState) String() string {
	switch s {
	case GPUHealthy:
		return "healthy"
	case GPUDegraded:
		return "degraded"
	case GPUQuarantined:
		return "quarantined"
	case GPUDead:
		return "dead"
	}
	return fmt.Sprintf("GPUHealthState(%d)", int(s))
}

// Usable reports whether placement and peering may use a GPU in this state.
func (s GPUHealthState) Usable() bool { return s == GPUHealthy || s == GPUDegraded }

// The health ladder's cadence and thresholds, in virtual time scaled for
// the experiments' millisecond timelines.
const (
	// healthInterval is the poll tick: the DCGM sampling loop of a real host
	// agent. 5ms matches the error cadence of degraded loads on the slowest
	// profile (each failed attempt costs a multi-ms fixed driver overhead),
	// so persistent degradation reliably yields consecutive bad ticks.
	healthInterval = 5 * time.Millisecond
	// healthErrThreshold is the per-tick error delta (failed loads +
	// transient retries) that marks a GPU degraded.
	healthErrThreshold = 1
	// healthDegradeTicks is how many consecutive bad ticks escalate
	// degraded to quarantined.
	healthDegradeTicks = 2
	// healthCleanTicks is how many consecutive clean ticks de-escalate
	// degraded back to healthy, and (with probation served) rejoin a
	// quarantined GPU.
	healthCleanTicks = 2
	// healthProbation is the minimum quarantine dwell before a clean GPU
	// may rejoin.
	healthProbation = 10 * time.Millisecond
)

// HealthMonitor is the per-host agent watching every GPU of a MultiGPUHost:
// a virtual-time polling loop (the shape of a DCGM/node-exporter sidecar)
// that reads each registry's error counters, walks the health ladder, and
// tells the serving layer when a device's tenants must evacuate. The
// monitor never moves a tenant itself — it flips the state that placement,
// peering and the failover serve loop consult, and fires OnEvacuate so the
// host can drain and re-place.
type HealthMonitor struct {
	mh  *MultiGPUHost
	rec *trace.Recorder

	// OnEvacuate, if set, fires once per GPU transition into quarantined or
	// dead — the host's cue to drain and re-place that device's tenants.
	OnEvacuate func(gpu int, state GPUHealthState)

	states  []GPUHealthState
	bad     []int // consecutive bad ticks per GPU
	clean   []int // consecutive clean ticks per GPU
	quarAt  []time.Duration
	last    []backend.Stats
	evacs   int
	stopped bool
}

// NewHealthMonitor builds a monitor over mh and installs it on the host, so
// Pick and peering skip quarantined and dead GPUs. Call Start to spawn the
// polling proc; rec may be nil.
func NewHealthMonitor(mh *MultiGPUHost, rec *trace.Recorder) *HealthMonitor {
	n := len(mh.Nodes)
	hm := &HealthMonitor{
		mh: mh, rec: rec,
		states: make([]GPUHealthState, n),
		bad:    make([]int, n),
		clean:  make([]int, n),
		quarAt: make([]time.Duration, n),
		last:   make([]backend.Stats, n),
	}
	mh.health = hm
	return hm
}

// Start spawns the polling proc. The loop exits when Stop is called — the
// experiment driver stops the monitor before closing the host's streams.
func (hm *HealthMonitor) Start(env *sim.Env) {
	env.Spawn("health-monitor", func(p *sim.Proc) {
		for {
			p.Sleep(healthInterval)
			if hm.stopped {
				return
			}
			for i := range hm.mh.Nodes {
				hm.poll(p.Now(), i)
			}
		}
	})
}

// Stop ends the polling loop at its next tick.
func (hm *HealthMonitor) Stop() { hm.stopped = true }

// State returns GPU i's current health state.
func (hm *HealthMonitor) State(i int) GPUHealthState { return hm.states[i] }

// Evacuations counts GPU transitions into quarantined or dead.
func (hm *HealthMonitor) Evacuations() int { return hm.evacs }

// poll advances GPU i's state machine one tick. The error signal is the
// tick-over-tick delta of failed loads plus transient retries on the GPU's
// shared registry — the counters a real agent scrapes from the driver.
func (hm *HealthMonitor) poll(now time.Duration, i int) {
	root := hm.mh.Nodes[i].Root()
	if root.DeviceLost() {
		if hm.states[i] != GPUDead {
			hm.transition(now, i, GPUDead)
		}
		return
	}
	st := root.Stats()
	errDelta := (st.FailedLoads - hm.last[i].FailedLoads) +
		(st.TransientRetries - hm.last[i].TransientRetries)
	hm.last[i] = st
	bad := errDelta >= healthErrThreshold

	switch hm.states[i] {
	case GPUHealthy:
		if bad {
			hm.bad[i], hm.clean[i] = 1, 0
			hm.transition(now, i, GPUDegraded)
		}
	case GPUDegraded:
		if bad {
			hm.clean[i] = 0
			if hm.bad[i]++; hm.bad[i] >= healthDegradeTicks {
				hm.transition(now, i, GPUQuarantined)
			}
		} else if hm.clean[i]++; hm.clean[i] >= healthCleanTicks {
			hm.bad[i] = 0
			hm.transition(now, i, GPUHealthy)
		}
	case GPUQuarantined:
		if bad {
			hm.clean[i] = 0
			return
		}
		if hm.clean[i]++; hm.clean[i] >= healthCleanTicks &&
			now-hm.quarAt[i] >= healthProbation {
			hm.bad[i] = 0
			hm.transition(now, i, GPUHealthy)
		}
	case GPUDead:
		// Terminal.
	}
}

// transition flips GPU i to next, emits the gpu_health_state counter, and —
// entering quarantined or dead — counts the evacuation and fires OnEvacuate.
func (hm *HealthMonitor) transition(now time.Duration, i int, next GPUHealthState) {
	hm.states[i] = next
	if next == GPUQuarantined {
		hm.quarAt[i] = now
	}
	if hm.rec != nil {
		hm.rec.Count(fmt.Sprintf("gpu%d_health_state", i), now, float64(next))
	}
	if next == GPUQuarantined || next == GPUDead {
		hm.evacs++
		if hm.rec != nil {
			hm.rec.Count("evacuations", now, float64(hm.evacs))
		}
		if hm.OnEvacuate != nil {
			hm.OnEvacuate(i, next)
		}
	}
}
