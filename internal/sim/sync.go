package sim

import "fmt"

// Barrier synchronizes a fixed-size group of processes: each participant
// blocks in Wait until all parties have arrived, then all resume at the
// same simulated time. It is cyclic: after releasing a generation it
// resets for the next one. The estimator uses it for mpi_barrier and for
// the implicit join of parallel regions.
type Barrier struct {
	name    string
	parties int
	arrived int
	waiting []*Process
	cycles  int
}

// NewBarrier creates a barrier for the given number of parties
// (parties >= 1).
func (e *Engine) NewBarrier(name string, parties int) *Barrier {
	if parties < 1 {
		panic(fmt.Sprintf("sim: barrier %q needs at least 1 party", name))
	}
	return &Barrier{name: name, parties: parties}
}

// Name returns the barrier name.
func (b *Barrier) Name() string { return b.name }

// Wait blocks until all parties have arrived.
func (b *Barrier) Wait(p *Process) {
	if b.BeginWait(p) {
		p.pause()
	}
}

// BeginWait is Wait's non-blocking half: it records the arrival and
// reports whether the process must wait for the others. The last to
// arrive releases the generation and does not wait.
func (b *Barrier) BeginWait(p *Process) (wait bool) {
	b.arrived++
	if b.arrived < b.parties {
		b.waiting = append(b.waiting, p)
		p.block()
		return true
	}
	b.waiting = wake(b.waiting)
	b.arrived = 0
	b.cycles++
	return false
}

// Cycles returns the number of completed barrier generations.
func (b *Barrier) Cycles() int { return b.cycles }

// Event is a CSIM-style state event: processes wait until it is set.
// Setting wakes every waiter; the event stays set (new waiters pass
// through) until Reset.
type Event struct {
	name    string
	set     bool
	waiting []*Process
}

// NewEvent creates an unset event.
func (e *Engine) NewEvent(name string) *Event {
	return &Event{name: name}
}

// Name returns the event name.
func (ev *Event) Name() string { return ev.name }

// IsSet reports whether the event is currently set.
func (ev *Event) IsSet() bool { return ev.set }

// Wait blocks the process until the event is set.
func (ev *Event) Wait(p *Process) {
	if ev.set {
		return
	}
	ev.waiting = append(ev.waiting, p)
	p.block()
	p.pause()
}

// Set marks the event and wakes every waiter. Safe to call from At/After
// callbacks.
func (ev *Event) Set() {
	if ev.set {
		return
	}
	ev.set = true
	ev.waiting = wake(ev.waiting)
}

// Reset clears the event so future waiters block again.
func (ev *Event) Reset() { ev.set = false }

// Counter is a countdown latch: Wait blocks until Done has been called n
// times. Used to implement joins over dynamically spawned workers.
type Counter struct {
	name    string
	n       int
	waiting []*Process
}

// NewCounter creates a countdown latch expecting n Done calls.
func (e *Engine) NewCounter(name string, n int) *Counter {
	return &Counter{name: name, n: n}
}

// Done decrements the counter, waking waiters when it reaches zero.
func (c *Counter) Done() {
	c.n--
	if c.n <= 0 {
		c.waiting = wake(c.waiting)
	}
}

// wake resumes every process in waiting, in order, and returns waiting
// emptied for reuse.
func wake(waiting []*Process) []*Process {
	for _, p := range waiting {
		p.unblock()
	}
	return waiting[:0]
}

// Reset rearms a drained counter to expect n more Done calls, so a join
// that repeats can reuse one latch. It panics if the counter has not
// reached zero.
func (c *Counter) Reset(n int) {
	if c.n > 0 {
		panic(fmt.Sprintf("sim: counter %q reset with %d Done calls outstanding", c.name, c.n))
	}
	c.n = n
}

// Wait blocks until the counter has reached zero.
func (c *Counter) Wait(p *Process) {
	if c.BeginWait(p) {
		p.pause()
	}
}

// BeginWait is Wait's non-blocking half: it reports whether the process
// must wait for the counter to reach zero, queuing it if so.
func (c *Counter) BeginWait(p *Process) (wait bool) {
	if c.n <= 0 {
		return false
	}
	c.waiting = append(c.waiting, p)
	p.block()
	return true
}
