package faults

import (
	"fmt"
	"time"

	"pask/internal/codeobj"
	"pask/internal/sim"
)

// defaultKillWindow bounds the seeded device-loss window when the plan sets
// a rate but no explicit [from, until) interval.
const defaultKillWindow = 50 * time.Millisecond

// DeviceLossAt reports whether host GPU idx is condemned to die, and when.
// A scheduled kill (GPUKillAt on GPUKillIdx) wins for its GPU; other GPUs
// roll the seeded GPUKillRate and, if condemned, die at a seeded instant
// inside [GPUKillFrom, GPUKillUntil). Deterministic in (seed, idx).
func (inj *Injector) DeviceLossAt(idx int) (time.Duration, bool) {
	if inj == nil {
		return 0, false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.plan.GPUKillAt > 0 && idx == inj.plan.GPUKillIdx {
		return inj.plan.GPUKillAt, true
	}
	if inj.plan.GPUKillRate <= 0 {
		return 0, false
	}
	key := fmt.Sprintf("gpu%d", idx)
	if inj.roll("gpu-kill", key, 0) >= inj.plan.GPUKillRate {
		return 0, false
	}
	window := inj.plan.GPUKillUntil - inj.plan.GPUKillFrom
	if window <= 0 {
		window = defaultKillWindow
	}
	frac := inj.roll("gpu-kill-at", key, 0)
	return inj.plan.GPUKillFrom + time.Duration(frac*float64(window)), true
}

// ArmGPUDeath spawns a watcher that kills host GPU idx (calling kill,
// typically Registry.MarkDeviceLost) at its condemned instant, if any.
// Arming is idempotent per GPU regardless of instance churn.
func (inj *Injector) ArmGPUDeath(env *sim.Env, idx int, kill func()) {
	at, ok := inj.DeviceLossAt(idx)
	if !ok {
		return
	}
	inj.mu.Lock()
	if inj.armedGPU[idx] {
		inj.mu.Unlock()
		return
	}
	inj.armedGPU[idx] = true
	inj.mu.Unlock()
	env.Spawn(fmt.Sprintf("fault-gpu-death-%d", idx), func(p *sim.Proc) {
		p.SleepUntil(at)
		inj.mu.Lock()
		inj.stats.GPULosses++
		inj.mu.Unlock()
		kill()
	})
}

// LinkFault rolls the fate of a peer transfer over the host link between
// GPUs i and j starting at now. While the flap window is open and the link
// touches LinkFlapGPU, the transfer either fails outright (down=true, after
// wasting stall detecting it) or — with LinkFlapStall set — stalls that
// long but completes (down=false, stall>0).
func (inj *Injector) LinkFault(now time.Duration, i, j int) (stall time.Duration, down bool) {
	if inj == nil {
		return 0, false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	p := inj.plan
	if p.LinkFlapFrom <= 0 && p.LinkFlapUntil <= 0 && p.LinkFlapStall <= 0 {
		return 0, false
	}
	if i != p.LinkFlapGPU && j != p.LinkFlapGPU {
		return 0, false
	}
	if now < p.LinkFlapFrom || (p.LinkFlapUntil > 0 && now >= p.LinkFlapUntil) {
		return 0, false
	}
	inj.stats.LinkFaults++
	if p.LinkFlapStall > 0 {
		return p.LinkFlapStall, false
	}
	return 0, true
}

func (inj *Injector) degradeActiveLocked(now time.Duration) bool {
	p := inj.plan
	if p.DegradeFactor <= 1 && p.DegradeTransient <= 0 {
		return false
	}
	return now >= p.DegradeFrom && (p.DegradeUntil <= 0 || now < p.DegradeUntil)
}

// GPUInjector is the per-GPU view of an Injector that the backend registry
// consumes: shared latency faults plus the device-scoped degradation
// effects, applied only on the configured GPU inside its window.
type GPUInjector struct {
	inj *Injector
	idx int
}

// GPUView returns the injector as seen from host GPU idx. The view shares
// the parent's seed, counters and stats; a nil parent yields a nil view,
// which is safe to install (the registry treats it as inert).
func (inj *Injector) GPUView(idx int) *GPUInjector {
	if inj == nil {
		return nil
	}
	return &GPUInjector{inj: inj, idx: idx}
}

// GPU returns the host GPU index this view scopes to.
func (v *GPUInjector) GPU() int { return v.idx }

// StoreGet implements backend.FaultInjector by delegating to the shared
// injector: store faults hit every GPU.
func (v *GPUInjector) StoreGet(path string, data []byte) ([]byte, error) {
	if v == nil {
		return data, nil
	}
	return v.inj.StoreGet(path, data)
}

// ExtraLoadLatency implements backend.FaultInjector by delegating to
// the shared injector: spikes and the slow-loader brownout hit every GPU.
func (v *GPUInjector) ExtraLoadLatency(now time.Duration, path string) time.Duration {
	if v == nil {
		return 0
	}
	return v.inj.ExtraLoadLatency(now, path)
}

// LoadLatencyScale implements backend.FaultInjector: the multiplier
// applied to modeled load time on this GPU at now (1 when healthy).
func (v *GPUInjector) LoadLatencyScale(now time.Duration) float64 {
	if v == nil {
		return 1
	}
	inj := v.inj
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if v.idx != inj.plan.DegradeGPU || inj.plan.DegradeFactor <= 1 || !inj.degradeActiveLocked(now) {
		return 1
	}
	inj.stats.DegradedLoads++
	return inj.plan.DegradeFactor
}

// ExtraLoadError implements backend.FaultInjector: the elevated
// transient error rate a degraded GPU's loads face inside the window.
// Consecutive failures per path are burst-capped so bounded retry wins.
func (v *GPUInjector) ExtraLoadError(now time.Duration, path string) error {
	if v == nil {
		return nil
	}
	inj := v.inj
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if v.idx != inj.plan.DegradeGPU || inj.plan.DegradeTransient <= 0 || !inj.degradeActiveLocked(now) {
		return nil
	}
	key := fmt.Sprintf("gpu%d|%s", v.idx, path)
	n := inj.degN[key]
	inj.degN[key] = n + 1
	if inj.degBurst[key] >= inj.plan.burst() {
		inj.degBurst[key] = 0
		return nil
	}
	if inj.roll("degrade", key, n) < inj.plan.DegradeTransient {
		inj.degBurst[key]++
		inj.stats.DegradedFaults++
		return fmt.Errorf("faults: injected ECC degradation reading %q on gpu%d (access %d): %w",
			path, v.idx, n, codeobj.ErrIO)
	}
	inj.degBurst[key] = 0
	return nil
}
