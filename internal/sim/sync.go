package sim

// Signal is a one-shot broadcast event in virtual time. Processes block on
// Wait until Fire is called; waiters arriving after Fire return immediately.
// Signals are the completion notifications used throughout the stack (module
// load finished, kernel finished, stream drained).
type Signal struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fire marks the signal fired and wakes all current waiters in FIFO order.
// Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		s.env.unpark(w)
	}
	s.waiters = nil
}

// Wait blocks p until the signal fires. Returns immediately if already fired.
func (s *Signal) Wait(p *Proc) {
	p.mustBlock("Wait")
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Resource is a counting FIFO resource (e.g. a driver lock with capacity 1 or
// a disk with limited parallelism). Acquire blocks in virtual time when the
// resource is exhausted; Release hands a slot to the longest waiter.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, capacity: capacity}
}

// Acquire takes one slot, blocking p in FIFO order while none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.park()
	// The releaser transferred its slot to us: inUse stays constant across
	// the handoff and was incremented on our behalf in Release.
}

// Release frees one slot. If processes are waiting the slot transfers
// directly to the head waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.env.unpark(w) // slot transfers: inUse unchanged
		return
	}
	r.inUse--
}
