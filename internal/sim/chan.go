package sim

// Chan is a single-producer single-consumer FIFO channel in virtual time,
// mirroring the SPSC channels PASK uses to join its parsing, loading and
// issuing host threads (paper §III-D). Send blocks while the buffer is full;
// Recv blocks while it is empty. Close releases a blocked receiver.
//
// The buffer is a ring: it doubles, up to capacity, only when full, and
// reuses its slots after that, so a steady stream of Send/Recv pairs
// allocates nothing and the backing array never exceeds the next power of
// two above the peak number of buffered items.
type Chan[T any] struct {
	env      *Env
	buf      []T // ring storage; live items are buf[head], ... (n of them, wrapping)
	head     int
	n        int
	capacity int
	closed   bool

	sendWaiter *Proc // producer blocked on full buffer
	recvWaiter *Proc // consumer blocked on empty buffer
}

// NewChan returns a channel with the given buffer capacity (>= 1).
func NewChan[T any](env *Env, capacity int) *Chan[T] {
	if capacity < 1 {
		panic("sim: Chan capacity must be >= 1")
	}
	return &Chan[T]{env: env, capacity: capacity}
}

// Len returns the number of buffered items.
func (c *Chan[T]) Len() int { return c.n }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Send enqueues v, blocking p while the buffer is full. Sending on a closed
// channel panics, as with native Go channels.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	if c.n == c.capacity {
		if c.sendWaiter != nil {
			panic("sim: concurrent senders on SPSC Chan")
		}
		c.sendWaiter = p
		p.park()
		if c.closed {
			panic("sim: send on closed Chan")
		}
	}
	if c.n == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.n)%len(c.buf)] = v
	c.n++
	if c.recvWaiter != nil {
		w := c.recvWaiter
		c.recvWaiter = nil
		c.env.unpark(w)
	}
}

// Recv dequeues the oldest item, blocking p while the buffer is empty. The
// second result is false when the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	var zero T
	for c.n == 0 {
		if c.closed {
			return zero, false
		}
		if c.recvWaiter != nil {
			panic("sim: concurrent receivers on SPSC Chan")
		}
		c.recvWaiter = p
		p.park()
	}
	return c.pop(), true
}

// Poll dequeues without blocking, for handler p. When the buffer is empty
// and the channel open, it parks p as the receiver, so that the next Send
// or Close makes p due again. ok is false when nothing was dequeued; Closed
// then tells a drained channel from an empty one.
func (c *Chan[T]) Poll(p *Proc) (v T, ok bool) {
	if p.step == nil {
		panic("sim: Poll by process " + p.name + ", which is not a handler")
	}
	if c.n > 0 {
		return c.pop(), true
	}
	if !c.closed {
		if c.recvWaiter != nil {
			panic("sim: concurrent receivers on SPSC Chan")
		}
		c.recvWaiter = p
		p.parked = true
	}
	return v, false
}

// pop removes the oldest item, clearing its slot so the ring holds no
// reference to it, and wakes a sender blocked on the full buffer.
func (c *Chan[T]) pop() T {
	var zero T
	v := c.buf[c.head]
	c.buf[c.head] = zero
	c.head = (c.head + 1) % len(c.buf)
	c.n--
	if c.sendWaiter != nil {
		w := c.sendWaiter
		c.sendWaiter = nil
		c.env.unpark(w)
	}
	return v
}

// grow doubles the full ring, capped at capacity, and unwraps its items to
// the front of the new array.
func (c *Chan[T]) grow() {
	buf := make([]T, min(max(2*len(c.buf), 1), c.capacity))
	k := copy(buf, c.buf[c.head:])
	copy(buf[k:], c.buf[:c.head])
	c.buf, c.head = buf, 0
}

// Close marks the channel closed and wakes a blocked receiver (which then
// observes the closed state) and a blocked sender (which then panics, as
// a send on a closed channel does).
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.recvWaiter != nil {
		w := c.recvWaiter
		c.recvWaiter = nil
		c.env.unpark(w)
	}
	if c.sendWaiter != nil {
		w := c.sendWaiter
		c.sendWaiter = nil
		c.env.unpark(w)
	}
}
