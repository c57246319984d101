package serving

import "pask/internal/sim"

// inflight tracks the processes a driver spawns for its requests or
// tenants. It counts them, wakes a waiter at each completion, and, once the
// driver closes it, fires when the last one has finished. A driver that
// waits for that drain closes the tracker on every exit path, so the
// waiter always wakes.
//
// A completion wakes the next-completion waiter before the drain waiter,
// and the tracker adds no process of its own: in traced runs every
// dispatch is sampled, so wakes and processes are part of the output.
type inflight struct {
	env     *sim.Env
	running int
	closed  bool
	freed   *sim.Signal // fires at the next completion, then re-arms
	drained *sim.Signal // fires once closed with nothing running
}

func newInflight(env *sim.Env) *inflight {
	return &inflight{env: env, freed: sim.NewSignal(env), drained: sim.NewSignal(env)}
}

// spawn runs fn as a counted process named name. Bookkeeping fn does
// before it returns is visible to every waiter the completion wakes.
func (t *inflight) spawn(name string, fn func(p *sim.Proc)) {
	t.running++
	t.env.Spawn(name, func(p *sim.Proc) {
		fn(p)
		t.running--
		freed := t.freed
		t.freed = sim.NewSignal(t.env)
		freed.Fire()
		if t.closed && t.running == 0 {
			t.drained.Fire()
		}
	})
}

// next blocks p until the next counted process finishes.
func (t *inflight) next(p *sim.Proc) { t.freed.Wait(p) }

// close ends spawning; the drain completes once nothing is running.
func (t *inflight) close() {
	t.closed = true
	if t.running == 0 {
		t.drained.Fire()
	}
}

// wait blocks p until the tracker is closed and every counted process has
// finished.
func (t *inflight) wait(p *sim.Proc) { t.drained.Wait(p) }
