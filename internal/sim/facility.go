package sim

import "fmt"

// Facility is a CSIM-style service facility: a set of identical servers
// with a single FCFS queue. The Performance Estimator uses facilities to
// model contended resources — processors of a node, interconnect links,
// critical sections.
type Facility struct {
	eng     *Engine
	name    string
	servers int
	busy    int
	waiting []waiter // FCFS queue

	// statistics
	busyIntegral float64 // sum over time of (busy servers) dt
	lastChange   float64
	services     int
	queueTimeSum float64
}

// waiter is a process queued on a facility and the time it joined.
type waiter struct {
	p     *Process
	since float64
}

// NewFacility creates a facility with the given number of servers
// (servers >= 1).
func (e *Engine) NewFacility(name string, servers int) *Facility {
	if servers < 1 {
		panic(fmt.Sprintf("sim: facility %q needs at least 1 server", name))
	}
	f := &Facility{eng: e, name: name, servers: servers}
	e.facilities = append(e.facilities, f)
	return f
}

// Name returns the facility name.
func (f *Facility) Name() string { return f.name }

// Servers returns the number of servers.
func (f *Facility) Servers() int { return f.servers }

// account integrates busy-server time up to now.
func (f *Facility) account() {
	now := f.eng.now
	f.busyIntegral += float64(f.busy) * (now - f.lastChange)
	f.lastChange = now
}

// Acquire takes one server, blocking FCFS while all servers are busy.
func (f *Facility) Acquire(p *Process) {
	if f.BeginAcquire(p) {
		p.pause()
	}
}

// BeginAcquire is Acquire's non-blocking half: it takes a free server, or
// queues the process and reports that it must wait. The process holds the
// server once it is resumed: Release hands it over directly and records
// the queue time.
func (f *Facility) BeginAcquire(p *Process) (wait bool) {
	if f.busy < f.servers && len(f.waiting) == 0 {
		f.account()
		f.busy++
		return false
	}
	f.waiting = append(f.waiting, waiter{p: p, since: f.eng.now})
	p.block()
	return true
}

// Release returns one server and hands it to the longest-waiting process,
// if any.
func (f *Facility) Release(p *Process) {
	if f.busy == 0 {
		panic(fmt.Sprintf("sim: facility %q released more than acquired", f.name))
	}
	if len(f.waiting) > 0 {
		// Shift the queue down in place rather than reslicing past its
		// head, so a contended facility stops reallocating it.
		next := f.waiting[0]
		n := copy(f.waiting, f.waiting[1:])
		f.waiting[n] = waiter{}
		f.waiting = f.waiting[:n]
		f.queueTimeSum += f.eng.now - next.since
		// The server passes directly to next: busy count is unchanged.
		next.p.unblock()
		return
	}
	f.account()
	f.busy--
}

// Use models one complete service: acquire a server, hold for
// serviceTime, release.
func (f *Facility) Use(p *Process, serviceTime float64) {
	f.Acquire(p)
	p.Hold(serviceTime)
	f.EndUse(p)
}

// EndUse releases the server of a finished service and counts it: the
// last step of Use, for a process that took the server with BeginAcquire
// and held it with BeginHold.
func (f *Facility) EndUse(p *Process) {
	f.Release(p)
	f.services++
}

// QueueLength returns the number of processes currently waiting.
func (f *Facility) QueueLength() int { return len(f.waiting) }

// Utilization returns the time-average fraction of busy servers over the
// interval [0, now]. It only reads: integrating up to now in place would
// split the busy integral at every telemetry sample and move its last
// bits, so an observed run would report other numbers than an unobserved
// one.
func (f *Facility) Utilization() float64 {
	if f.eng.now == 0 {
		return 0
	}
	busy := f.busyIntegral + float64(f.busy)*(f.eng.now-f.lastChange)
	return busy / (f.eng.now * float64(f.servers))
}

// CompletedServices returns the number of Use calls that finished.
func (f *Facility) CompletedServices() int { return f.services }

// MeanQueueTime returns the average time completed waiters spent queued
// (0 when nothing ever queued).
func (f *Facility) MeanQueueTime() float64 {
	dequeued := f.services // approximation: services that had to queue are a subset
	if f.queueTimeSum == 0 || dequeued == 0 {
		return 0
	}
	return f.queueTimeSum / float64(dequeued)
}
