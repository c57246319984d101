package sim

// Chan is a single-producer single-consumer FIFO channel in virtual time,
// mirroring the SPSC channels PASK uses to join its parsing, loading and
// issuing host threads (paper §III-D). Send blocks while the buffer is full;
// Recv blocks while it is empty. Close releases a blocked receiver.
type Chan[T any] struct {
	env      *Env
	buf      []T
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
func (c *Chan[T]) Len() int { return len(c.buf) }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Send enqueues v, blocking p while the buffer is full. Sending on a closed
// channel panics, as with native Go channels.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	if len(c.buf) == c.capacity {
		if c.sendWaiter != nil {
			panic("sim: concurrent senders on SPSC Chan")
		}
		c.sendWaiter = p
		p.park()
		if c.closed {
			panic("sim: send on closed Chan")
		}
	}
	c.buf = append(c.buf, v)
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
	for len(c.buf) == 0 {
		if c.closed {
			return zero, false
		}
		if c.recvWaiter != nil {
			panic("sim: concurrent receivers on SPSC Chan")
		}
		c.recvWaiter = p
		p.park()
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	if c.sendWaiter != nil {
		w := c.sendWaiter
		c.sendWaiter = nil
		c.env.unpark(w)
	}
	return v, true
}

// TryRecv dequeues without blocking. ok is false if the buffer is empty.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	var zero T
	if len(c.buf) == 0 {
		return zero, false
	}
	v = c.buf[0]
	c.buf = c.buf[1:]
	if c.sendWaiter != nil {
		w := c.sendWaiter
		c.sendWaiter = nil
		c.env.unpark(w)
	}
	return v, true
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
