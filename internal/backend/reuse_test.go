package backend

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pask/internal/sim"
)

// reuseStep is the observable state of a registry after one script step.
type reuseStep struct {
	Op      string
	Result  string // launched function and whether the call failed
	Now     time.Duration
	Stats   Stats
	Tenants []TenantStats
	Paths   []string   // resident paths, sorted
	Pinned  [][]string // sorted pins of every view, root first
	Evicted []string   // eviction victims during the step
}

// evictLog records the registry's eviction victims.
type evictLog struct{ victims []string }

func (l *evictLog) RegistryEvent(kind, path string, _ time.Duration) {
	if kind == "evict" {
		l.victims = append(l.victims, path)
	}
}
func (l *evictLog) RegistrySample(string, time.Duration, float64) {}

// reuseSymbols lists every (path, symbol) pair the script launches.
var reuseSymbols = [][2]string{
	{"conv_a.pko", "conv_a_main"},
	{"conv_a.pko", "conv_a_xform"},
	{"conv_b.pko", "conv_b_main"},
	{"conv_c.pko", "conv_c_main"},
}

// runReuseScript drives h's registry, a root view and two tenant views,
// through the seeded script, losing the device for its last tenth, and
// returns the state after every step. With
// bound set, launches and module loads reuse what the same view resolved
// earlier (Reuse, ReuseModule) and resolve again only when reuse is
// refused; otherwise every launch resolves with GetFunction and every load
// calls ModuleLoad. It also returns how many launches and loads reuse
// served.
func runReuseScript(t *testing.T, h *harness, seed int64, steps int, bound bool) ([]reuseStep, int) {
	t.Helper()
	log := &evictLog{}
	h.rt.SetObserver(log)
	views := []*Registry{h.rt, h.rt.Attach("t0"), h.rt.Attach("t1")}
	fns := make(map[[3]string]Function)
	mods := make(map[[2]string]*Module)
	rng := rand.New(rand.NewSource(seed))
	var out []reuseStep
	reused := 0
	h.run(t, func(p *sim.Proc) {
		for i := 0; i < steps; i++ {
			p.Sleep(time.Duration(rng.Intn(4)) * time.Microsecond)
			vi := rng.Intn(len(views))
			v := views[vi]
			var op, res string
			if i == steps*9/10 {
				// The device dies; the rest of the script runs against it.
				h.rt.MarkDeviceLost()
			}
			switch r := rng.Intn(100); {
			case r < 60:
				ps := reuseSymbols[rng.Intn(len(reuseSymbols))]
				op = fmt.Sprintf("launch %d %s", vi, ps[1])
				key := [3]string{v.tstats.Tenant, ps[0], ps[1]}
				fn, err := fns[key], error(nil)
				if bound && v.Reuse(fn) {
					reused++
				} else {
					fn, err = v.GetFunction(p, ps[0], ps[1])
					if err == nil {
						fns[key] = fn
					}
				}
				res = fmt.Sprint(fn.Name(), " ", err != nil)
			case r < 80:
				path := reuseSymbols[rng.Intn(len(reuseSymbols))][0]
				op = fmt.Sprintf("load %d %s", vi, path)
				key := [2]string{v.tstats.Tenant, path}
				m, err := mods[key], error(nil)
				if bound && v.ReuseModule(m) {
					reused++
				} else {
					m, err = v.ModuleLoad(p, path)
					if err == nil {
						mods[key] = m
					}
				}
				res = fmt.Sprint(err != nil)
			case r < 88:
				path := reuseSymbols[rng.Intn(len(reuseSymbols))][0]
				op = "unload " + path
				res = fmt.Sprint(h.rt.Unload(path))
			case r < 92:
				op = "unload-all"
				h.rt.UnloadAll()
			case r < 97:
				op = fmt.Sprintf("detach %d", vi)
				v.Detach()
			default:
				op = "idle"
			}
			st := reuseStep{
				Op: op, Result: res, Now: p.Now(),
				Stats: h.rt.Stats(), Tenants: h.rt.AllTenantStats(),
				Paths: sortedKeys(h.rt.sh.modules), Evicted: log.victims,
			}
			for _, v := range views {
				st.Pinned = append(st.Pinned, sortedKeys(v.pinned))
			}
			log.victims = nil
			out = append(out, st)
		}
	})
	return out, reused
}

// A launch through a bound function and Reuse (or a load through
// ReuseModule) is indistinguishable from resolving it again: across a
// seeded mix of launches, loads, unloads, resets, evictions under a small
// code memory, tenant detaches and device loss, two identical registries —
// one resolving every launch, one reusing bound functions — agree after
// every step on stats, tenant stats, residency, pins, eviction victims and
// the virtual clock.
func testReuseMatchesLookup(t *testing.T, h *harness) {
	const steps = 300
	for seed := int64(1); seed <= 8; seed++ {
		lookup, reuse := h.twin(t), h.twin(t)
		want, _ := runReuseScript(t, lookup, seed, steps, false)
		got, reused := runReuseScript(t, reuse, seed, steps, true)
		if reused == 0 {
			t.Errorf("seed %d: nothing was reused; the script must exercise Reuse", seed)
		}
		evictions := 0
		for i := range want {
			evictions += len(want[i].Evicted)
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d step %d (%s): reuse state\n%+v\nwant lookup state\n%+v", seed, i, want[i].Op, got[i], want[i])
			}
		}
		if evictions == 0 {
			t.Errorf("seed %d: the script evicted nothing; it must exercise eviction", seed)
		}
	}
}
