// Package faults is a deterministic, seeded fault injector for the PASK
// loading pipeline — this reproduction's extension beyond the paper's
// evaluation (fault taxonomy and seams in DESIGN.md §9): the §III-A pipeline
// touches storage, drivers and a vendor database, which is where production
// deployments see faults. A declarative Plan names the failure modes to exercise —
// transient store I/O errors, permanently corrupt code objects, load-latency
// spikes, solution-discovery outages, and a device reset at a chosen virtual
// time — and an Injector turns it into byte-level misbehaviour where real
// faults enter a process: its runtime registry's store reads and module
// loads (backend.FaultInjector), and its MIOpen library's find path
// (DisabledIDs).
//
// Every decision is a pure hash of (seed, fault kind, path, access count),
// so a fixed plan replays identically across runs and across policies under
// test: the chaos experiment's fairness depends on each policy facing the
// same storm. A nil *Injector is inert, and a disabled rate costs nothing on
// the production path.
//
// # Plan spec grammar
//
// ParsePlan decodes a comma-separated "key=value" spec. Rates are floats in
// [0,1]; *_ms keys are non-negative millisecond counts (fractions allowed).
// A key outside this set is an error. The full key set:
//
//	seed=<int>              stream selector; same plan+seed => same faults
//	transient=<rate>        per-read retriable store I/O error
//	burst=<int>             cap on consecutive transient failures per path
//	permanent=<rate>        per-path always-corrupt object bytes
//	spike=<rate>            per-load latency spike probability
//	spike_ms=<ms>           spike magnitude (default 2ms)
//	disable=<rate>          per-solution find-path outage
//	reset_ms=<ms>           device reset (UnloadAll) at this virtual time
//	slow_ms=<ms>            sustained extra load latency inside the window
//	slow_from_ms=<ms>       slow-loader window start
//	slow_until_ms=<ms>      slow-loader window end (0 = forever)
//	flood_n=<int>           synthetic request flood size
//	flood_ms=<ms>           flood start time
//	flood_gap_ms=<ms>       flood inter-arrival gap (0 = simultaneous)
//
// Paper anchor: beyond-paper fault injection at the §III-A pipeline's storage/driver/find seams (DESIGN.md §9, §17).
package faults

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pask/internal/codeobj"
	"pask/internal/sim"
)

// Plan declares which faults to inject and how often. Rates are
// probabilities in [0,1] evaluated per store access (transient, spike) or
// per path/ID (permanent, disable).
type Plan struct {
	Seed int64 // stream selector; same plan+seed => same faults

	// TransientRate is the per-read probability of a retriable I/O error
	// (wrapping codeobj.ErrIO). Consecutive failures on one path are capped
	// by MaxTransientBurst so bounded retry can always win.
	TransientRate float64
	// MaxTransientBurst caps consecutive transient failures per path.
	// Zero means the default of 2.
	MaxTransientBurst int

	// PermanentRate is the per-path probability that an object's bytes are
	// corrupt on every read — the stored copy is damaged, not the wire.
	PermanentRate float64

	// SpikeRate is the per-load probability of an added latency spike of
	// SpikeExtra (default 2ms) on top of the modeled load time.
	SpikeRate  float64
	SpikeExtra time.Duration

	// DisableRate is the per-solution probability that the find path
	// reports the solution unavailable (a vendor-db outage stand-in).
	DisableRate float64

	// DeviceResetAt, when positive, unloads every module at that virtual
	// time — the driver-level device reset / preemption event.
	DeviceResetAt time.Duration

	// SlowLoadExtra models a sustained storage/driver brownout (an NFS or
	// registry slowdown rather than a per-load spike): every module load
	// whose start falls inside [SlowFrom, SlowUntil) pays this much extra.
	// SlowUntil of zero with a positive SlowLoadExtra means "until forever".
	SlowLoadExtra time.Duration
	SlowFrom      time.Duration
	SlowUntil     time.Duration

	// FloodN, when positive, describes a synthetic request flood the serving
	// layer splices into its arrival trace: FloodN extra requests starting at
	// FloodAt, spaced FloodGap apart (default 0 — a simultaneous burst). The
	// injector itself never sees requests; serving.ApplyFlood consumes these.
	FloodN   int
	FloodAt  time.Duration
	FloodGap time.Duration
}

func (p Plan) burst() int {
	if p.MaxTransientBurst > 0 {
		return p.MaxTransientBurst
	}
	return 2
}

func (p Plan) spike() time.Duration {
	if p.SpikeExtra > 0 {
		return p.SpikeExtra
	}
	return 2 * time.Millisecond
}

// Stats counts injected faults.
type Stats struct {
	TransientFaults int // reads failed with a retriable error
	CorruptReads    int // reads answered with corrupted bytes
	LatencySpikes   int // loads slowed by SpikeExtra
	Resets          int // device resets fired
}

// Injector implements the fault plan. It satisfies backend.FaultInjector
// through store reads and load latency; it injects no load errors and
// scales no load times. A nil Injector is safe to call and injects nothing.
type Injector struct {
	plan Plan

	mu     sync.Mutex
	exempt map[string]bool
	readN  map[string]int // store accesses per path
	burstN map[string]int // consecutive transient failures per path
	loadN  map[string]int // latency-spike rolls per path
	armed  bool
	stats  Stats
}

// New builds an injector for the plan. Rates are clamped to [0,1].
func New(plan Plan) *Injector {
	clamp := func(r *float64) {
		if *r < 0 {
			*r = 0
		}
		if *r > 1 {
			*r = 1
		}
	}
	clamp(&plan.TransientRate)
	clamp(&plan.PermanentRate)
	clamp(&plan.SpikeRate)
	clamp(&plan.DisableRate)
	return &Injector{
		plan:   plan,
		exempt: make(map[string]bool),
		readN:  make(map[string]int),
		burstN: make(map[string]int),
		loadN:  make(map[string]int),
	}
}

// Plan returns the (clamped) plan the injector runs.
func (inj *Injector) Plan() Plan { return inj.plan }

// Exempt shields paths from corruption and transient faults — used for
// objects that ship inside the engine binary and never cross storage.
func (inj *Injector) Exempt(paths ...string) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, p := range paths {
		inj.exempt[p] = true
	}
}

func (inj *Injector) roll(kind, key string, n int) float64 {
	return Roll(inj.plan.Seed, kind, key, n)
}

// Roll maps (seed, kind, key, n) to a uniform float64 in [0,1). Every
// seeded fault decision is one Roll, so a fixed seed replays the same
// faults in any run order; the serving rigs' whole-GPU and image-pull
// faults roll through it too.
func Roll(seed int64, kind, key string, n int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", seed, kind, key, n)
	// FNV barely avalanches its final bytes: without extra mixing, two
	// inputs differing only in the trailing counter produce nearly equal
	// rolls, so "per-access" rates degenerate to per-path ones. Finalize
	// with a splitmix64-style mixer before mapping to [0,1).
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	// 53 bits of hash → uniform in [0,1).
	return float64(x>>11) / float64(1<<53)
}

// StoreGet implements backend.FaultInjector. It never mutates data:
// corrupted reads return a damaged copy, because the store is shared across
// processes and the "disk" copy of an exempt-free path stays pristine.
func (inj *Injector) StoreGet(path string, data []byte) ([]byte, error) {
	if inj == nil {
		return data, nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.exempt[path] {
		return data, nil
	}
	n := inj.readN[path]
	inj.readN[path] = n + 1
	if inj.plan.TransientRate > 0 && inj.burstN[path] < inj.plan.burst() &&
		inj.roll("io", path, n) < inj.plan.TransientRate {
		inj.burstN[path]++
		inj.stats.TransientFaults++
		return nil, fmt.Errorf("faults: injected I/O error reading %q (access %d): %w", path, n, codeobj.ErrIO)
	}
	inj.burstN[path] = 0
	if inj.permanentLocked(path) {
		inj.stats.CorruptReads++
		cp := make([]byte, len(data))
		copy(cp, data)
		if len(cp) > 0 {
			cp[len(cp)/2] ^= 0xff
		}
		return cp, nil
	}
	return data, nil
}

func (inj *Injector) permanentLocked(path string) bool {
	return inj.plan.PermanentRate > 0 && inj.roll("perm", path, 0) < inj.plan.PermanentRate
}

// ExtraLoadLatency implements backend.FaultInjector: the extra virtual time
// a module load starting at now spends. Seeded per-load spikes and the
// windowed slow-loader brownout stack — a spike during the window pays both.
func (inj *Injector) ExtraLoadLatency(now time.Duration, path string) time.Duration {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var extra time.Duration
	if inj.plan.SlowLoadExtra > 0 && now >= inj.plan.SlowFrom &&
		(inj.plan.SlowUntil <= 0 || now < inj.plan.SlowUntil) {
		extra += inj.plan.SlowLoadExtra
	}
	if inj.plan.SpikeRate > 0 {
		n := inj.loadN[path]
		inj.loadN[path] = n + 1
		if inj.roll("spike", path, n) < inj.plan.SpikeRate {
			inj.stats.LatencySpikes++
			extra += inj.plan.spike()
		}
	}
	return extra
}

// ExtraLoadError implements backend.FaultInjector. Injected load errors are
// whole-GPU degradation, which no plan spec expresses: it never fails a load.
func (inj *Injector) ExtraLoadError(time.Duration, string) error { return nil }

// LoadLatencyScale implements backend.FaultInjector. Like ExtraLoadError it
// belongs to whole-GPU degradation: it never scales a load.
func (inj *Injector) LoadLatencyScale(time.Duration) float64 { return 1 }

// DisabledIDs returns the seeded subset of solution IDs the find path must
// report unavailable. Callers pass the result to miopen's Library.Disable.
func (inj *Injector) DisabledIDs(ids []string) []string {
	if inj == nil || inj.plan.DisableRate <= 0 {
		return nil
	}
	var out []string
	for _, id := range ids {
		if inj.roll("disable", id, 0) < inj.plan.DisableRate {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// ArmReset spawns a watcher that fires the plan's device reset (calling
// reset, typically Runtime.UnloadAll) at DeviceResetAt. Arming is
// idempotent: one watcher per injector regardless of instance churn.
func (inj *Injector) ArmReset(env *sim.Env, reset func()) {
	if inj == nil || inj.plan.DeviceResetAt <= 0 {
		return
	}
	inj.mu.Lock()
	if inj.armed {
		inj.mu.Unlock()
		return
	}
	inj.armed = true
	at := inj.plan.DeviceResetAt
	inj.mu.Unlock()
	env.Spawn("fault-reset", func(p *sim.Proc) {
		p.SleepUntil(at)
		inj.mu.Lock()
		inj.stats.Resets++
		inj.mu.Unlock()
		reset()
	})
}

// Stats returns a snapshot of injected-fault counts.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}

// ParsePlan decodes a comma-separated fault spec such as
//
//	"transient=0.1,permanent=0.02,seed=7,burst=2,spike=0.05,spike_ms=3,reset_ms=40,disable=0.1,
//	 slow_ms=1,slow_from_ms=10,slow_until_ms=30,flood_n=20,flood_ms=5,flood_gap_ms=0.1"
//
// It rejects a key the plan does not own (the package doc lists them all)
// and a malformed value. The empty spec is the zero Plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return p, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		// The comparisons are written so NaN fails them: NaN compares
		// false with everything, so "f < 0 || f > 1" would let it through.
		rate := func() (float64, error) {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0 && f <= 1) {
				return 0, fmt.Errorf("faults: %s=%q is not a rate in [0,1]", key, val)
			}
			return f, nil
		}
		ms := func() (time.Duration, error) {
			f, err := strconv.ParseFloat(val, 64)
			// 2^63 ns is the first value a time.Duration cannot hold; +Inf
			// fails the same bound.
			d := f * float64(time.Millisecond)
			if err != nil || !(d >= 0 && d < 1<<63) {
				return 0, fmt.Errorf("faults: %s=%q is not a millisecond count", key, val)
			}
			return time.Duration(d), nil
		}
		var err error
		switch key {
		case "transient":
			p.TransientRate, err = rate()
		case "permanent":
			p.PermanentRate, err = rate()
		case "spike":
			p.SpikeRate, err = rate()
		case "disable":
			p.DisableRate, err = rate()
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("faults: seed=%q is not an integer", val)
			}
		case "burst":
			var b int
			b, err = strconv.Atoi(val)
			if err != nil || b < 0 {
				err = fmt.Errorf("faults: burst=%q is not a non-negative integer", val)
			}
			p.MaxTransientBurst = b
		case "spike_ms":
			p.SpikeExtra, err = ms()
		case "reset_ms":
			p.DeviceResetAt, err = ms()
		case "slow_ms":
			p.SlowLoadExtra, err = ms()
		case "slow_from_ms":
			p.SlowFrom, err = ms()
		case "slow_until_ms":
			p.SlowUntil, err = ms()
		case "flood_n":
			var n int
			n, err = strconv.Atoi(val)
			if err != nil || n < 0 {
				err = fmt.Errorf("faults: flood_n=%q is not a non-negative integer", val)
			}
			p.FloodN = n
		case "flood_ms":
			p.FloodAt, err = ms()
		case "flood_gap_ms":
			p.FloodGap, err = ms()
		default:
			err = fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return p, err
		}
	}
	return p, nil
}
