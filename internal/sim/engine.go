// Package sim is a process-oriented discrete-event simulation engine: the
// stand-in for the commercial CSIM engine at the bottom of the paper's
// Figure 2 architecture ("CSIM Simulation Engine").
//
// The feature set mirrors what the Performance Estimator needs from CSIM:
//
//   - processes: independent threads of simulated control (Spawn), which
//     advance simulated time by holding (Process.Hold)
//   - facilities: servers with FCFS queueing and utilization statistics
//     (Facility), modeling processors and interconnect links
//   - mailboxes: typed FIFO message channels with blocking receive
//     (Mailbox), modeling point-to-point communication
//   - barriers and events for collective synchronization
//
// A process is either a coroutine or a continuation. A coroutine process
// (Spawn) is straight-line Go code on an iter.Pull coroutine, and its
// blocking methods (Hold, Acquire, Receive, ...) suspend it. A
// continuation (SpawnContinuation) is a state machine whose Resume the
// engine calls by plain function call; it waits through the non-blocking
// Begin methods (BeginHold, BeginAcquire, BeginReceive, ...) that the
// blocking methods are built on, so both kinds follow the same rules in
// the same event order. Exactly one process, or the goroutine that called
// Run, runs at any instant, and control never passes through the Go
// scheduler. A coroutine process that pauses runs the event loop itself,
// executing callbacks inline until the next process event. If that event
// is its own wakeup it simply carries on; otherwise it yields to Run's
// loop, which resumes the process due. A finished process's coroutine
// waits on the engine's idle list for the next process to start. Together
// with a deterministic (time, sequence)-ordered event queue this makes
// every simulation run bit-for-bit reproducible.
package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Engine is one simulation instance. The zero value is not usable; call
// New.
type Engine struct {
	now    float64
	events eventQueue
	seq    uint64
	// executed counts events dispatched by Run/RunUntil — the engine's
	// unit of work, reported by EventsExecuted for request telemetry.
	executed int64
	// transitions counts process lifecycle transitions by kind, observer
	// or not (see EventCounts).
	transitions EventCounts

	alive []*Process
	done  int // processes in alive that have reached stateDone
	err   error

	// Control handoff. Whichever coroutine holds control owns the engine;
	// it yields to Run's loop with the process to resume next in due.
	due      *Process    // process to resume next; nil when the loop is over
	bounded  bool        // the run stops at limit (RunUntil)
	limit    float64     // RunUntil's horizon
	stop     error       // why the loop ended early: an interrupt
	panicked interface{} // panic value of an At/After callback, re-raised by Run
	idle     []*worker   // coroutines of finished processes, free for new ones
	zombies  []*worker   // coroutines of processes that called runtime.Goexit

	// interrupted carries an external stop request (Interrupt). It is the
	// only engine field touched from outside the coroutine holding
	// control, so it is atomic; the event loop checks it between events.
	interrupted atomic.Pointer[interruptCause]

	// free is the event free-list: events popped from the queue are
	// recycled through schedule instead of being reallocated, so a
	// steady-state simulation schedules with zero allocations.
	free *event

	// obs, when non-nil, receives lifecycle events and telemetry samples
	// (see Observer in observer.go).
	obs         Observer
	sampleEvery float64 // sampling interval in simulated time; 0 = every time change
	nextSample  float64 // next simulated time at which to sample
	lastSampled float64 // time of the last emitted sample (-1: none yet)

	// registries of resources created on this engine, for telemetry.
	facilities   []*Facility
	psFacilities []*PSFacility
	mailboxes    []*Mailbox
}

// New creates an empty simulation. The event queue and process table are
// preallocated so short-lived engines (parameter sweeps create one per
// run) don't grow them from zero.
func New() *Engine {
	return &Engine{
		lastSampled: -1,
		events:      make(eventQueue, 0, 128),
		alive:       make([]*Process, 0, 16),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// EventsExecuted returns how many events Run/RunUntil have dispatched so
// far — a cheap proxy for how much simulation work a run cost. Read it
// after the run returns (the coroutine holding control owns the counter).
func (e *Engine) EventsExecuted() int64 { return e.executed }

// lifecycle is a process lifecycle transition kind.
type lifecycle uint8

const (
	evSpawn lifecycle = iota
	evRun
	evHold
	evBlock
	evDone
	numLifecycle
)

// lifecycleNames name the transition kinds as Observer.Event and
// EventCounts report them.
var lifecycleNames = [numLifecycle]string{"spawn", "run", "hold", "block", "done"}

func (e *Engine) trace(p *Process, k lifecycle) {
	e.transitions[k]++
	if e.obs != nil {
		e.obs.Event(e.now, p, lifecycleNames[k])
	}
}

// EventCounts tallies process lifecycle transitions by kind: a value
// with no allocation behind it, turned into a map only when read by name.
type EventCounts [numLifecycle]int64

// Map returns the counts by kind ("spawn", "run", "hold", "block",
// "done"), omitting kinds that never occurred — the counts a Recorder
// installed before the first Spawn reports.
func (c EventCounts) Map() map[string]int64 {
	out := make(map[string]int64, numLifecycle)
	for k, n := range c {
		if n > 0 {
			out[lifecycleNames[k]] = n
		}
	}
	return out
}

// EventCounts returns the process lifecycle transitions so far, kept
// with or without an observer.
func (e *Engine) EventCounts() EventCounts { return e.transitions }

// LoneProcessEventCounts returns the EventCounts of an engine run in
// which a single process held holds times, never blocked, and finished:
// one spawn, one dispatch at the start and after every hold, one done.
// Runtimes that execute such a process without the engine report these.
func LoneProcessEventCounts(holds int64) EventCounts {
	var c EventCounts
	c[evSpawn], c[evRun], c[evHold], c[evDone] = 1, 1+holds, holds, 1
	return c
}

// event is a scheduled occurrence: resume a process or run a callback.
type event struct {
	time float64
	seq  uint64
	p    *Process
	fn   func()
	next *event // free-list link; nil while the event is queued
}

// eventQueue is a binary min-heap ordered by (time, seq): ties resolve in
// schedule order, which keeps runs deterministic. push and pop make the
// comparisons of container/heap's up and down in the same order, so they
// pop events in the same order, NaN times included.
type eventQueue []*event

func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	h, j := *q, len(*q)-1
	for ; j > 0 && ev.before(h[(j-1)/2]); j = (j - 1) / 2 {
		h[j] = h[(j-1)/2]
	}
	h[j] = ev
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top, ev := h[0], h[n]
	h[n], h = nil, h[:n]
	*q = h
	if n > 0 {
		i := 0
		for j := 1; j < n; j = 2*i + 1 {
			if j+1 < n && h[j+1].before(h[j]) {
				j++
			}
			if !h[j].before(ev) {
				break
			}
			h[i], i = h[j], j
		}
		h[i] = ev
	}
	return top
}

// schedule enqueues an event at absolute time t, reusing a recycled
// event when one is available.
func (e *Engine) schedule(t float64, p *Process, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.time, ev.seq, ev.p, ev.fn, ev.next = t, e.seq, p, fn, nil
	} else {
		ev = &event{time: t, seq: e.seq, p: p, fn: fn}
	}
	e.events.push(ev)
}

// release returns a popped event to the free-list. The event must no
// longer be referenced by the queue.
func (e *Engine) release(ev *event) {
	ev.p, ev.fn = nil, nil
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute simulated time t (>= now). The
// callback runs inside the event loop, on whichever coroutine holds
// control: it must not block, but it may spawn processes and signal
// synchronization objects.
func (e *Engine) At(t float64, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run dt time units from now.
func (e *Engine) After(dt float64, fn func()) { e.At(e.now+dt, fn) }

// Spawn creates a process executing fn. The process starts at the current
// simulated time, after the caller yields control.
func (e *Engine) Spawn(name string, fn func(*Process)) *Process {
	return e.spawn(&Process{eng: e, name: name, named: true, body: fn})
}

// Continuation is a process body written as a state machine, which the
// engine calls with no coroutine behind it. Resume runs at the process's
// start and each time a wait it began ends: it runs until a Begin method
// (BeginHold, Facility.BeginAcquire, ...) reports a wait, and returns
// true, or until the process ends. A non-nil error fails the run, as
// Process.Fail does. Resume must not call the blocking methods (Hold,
// Acquire, ...).
//
// Name is called the first time the process's name is read — by
// Process.Name, a ProcessError, a panic report or a DeadlockError — and
// the result is kept, so a name that is costly to build and rarely read
// costs nothing; it must return the process's name for as long as the
// process is alive. With an observer installed the name is read at spawn.
type Continuation interface {
	Name() string
	Resume(p *Process) (wait bool, err error)
}

// SpawnContinuation creates a process whose body is c. The process starts
// at the current simulated time, after the caller yields control.
func (e *Engine) SpawnContinuation(c Continuation) *Process {
	return e.spawn(&Process{eng: e, cont: c})
}

func (e *Engine) spawn(p *Process) *Process {
	e.alive = append(e.alive, p)
	if e.obs != nil {
		p.Name()
	}
	e.trace(p, evSpawn)
	e.schedule(e.now, p, nil)
	return p
}

// Run executes the simulation until no events remain or an error occurs.
// It returns the final simulated time. A simulation that ends with
// processes still blocked on a facility, mailbox, barrier or event reports
// a DeadlockError.
func (e *Engine) Run() (float64, error) {
	defer e.shutdown()
	if err := e.run(false, 0); err != nil {
		return e.now, err
	}
	if blocked := e.blockedProcesses(); len(blocked) > 0 {
		return e.now, &DeadlockError{Time: e.now, Processes: blocked}
	}
	return e.now, nil
}

// RunUntil executes the simulation up to (and including) time limit.
// Remaining events stay queued. Like Run, it closes the telemetry series
// with a final sample, so a partial run keeps the tail of its series.
func (e *Engine) RunUntil(limit float64) (float64, error) {
	defer e.shutdown()
	err := e.run(true, limit)
	return e.now, err
}

// run drives the event loop, up to limit when bounded, from the calling
// goroutine, which resumes process coroutines in turn, and closes the
// telemetry series unless the run failed. A callback panic caught on a
// process coroutine is re-raised here, on the caller's goroutine.
func (e *Engine) run(bounded bool, limit float64) error {
	e.bounded, e.limit, e.stop = bounded, limit, nil
	e.dispatch(e.advance(nil))
	if v := e.panicked; v != nil {
		e.panicked = nil
		panic(v)
	}
	if e.stop != nil {
		return e.stop
	}
	if e.err != nil {
		return e.err
	}
	e.finalSample()
	return nil
}

// advance finishes the bookkeeping of the dispatch of cur, the process
// that paused or finished (nil at the start of a run), then pops events
// and runs callbacks until a live process is due. It returns that
// process, already marked running, or nil when the loop is over: queue
// empty, limit reached, error, interrupt or callback panic.
func (e *Engine) advance(cur *Process) (next *Process) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			next = nil
		}
	}()
	if cur != nil {
		if cur.state == stateDone {
			e.done++
		}
		if e.err != nil {
			return nil
		}
		e.compactAlive()
		e.maybeSample()
	}
	for len(e.events) > 0 && (!e.bounded || e.events[0].time <= e.limit) {
		if c := e.interrupted.Load(); c != nil {
			e.stop = &InterruptError{Time: e.now, Cause: c.err}
			return nil
		}
		ev := e.events.pop()
		e.executed++
		e.now = ev.time
		p, fn := ev.p, ev.fn
		e.release(ev)
		if fn != nil {
			fn()
		} else if p.state != stateDone { // else a stale wakeup of a finished process
			p.state = stateRunning
			e.trace(p, evRun)
			return p
		}
		if e.err != nil {
			return nil
		}
		e.compactAlive()
		e.maybeSample()
	}
	return nil
}

// resume runs continuation process p until it waits, or ends, fails or
// panics, which finishes it.
func (e *Engine) resume(p *Process) {
	defer func() {
		if r := recover(); r != nil {
			e.finish(p, r)
		}
	}()
	if wait, err := p.cont.Resume(p); err != nil {
		e.finish(p, failure{err: err})
	} else if !wait {
		e.finish(p, nil)
	}
}

// exec runs the body of w's process to its end. A panic or Process.Fail
// becomes the run's error; exec reports false when shutdown unwound the
// process.
func (e *Engine) exec(w *worker) (finished bool) {
	p := w.p
	defer func() {
		r := recover()
		if r == errPoisoned {
			p.state = stateDone
			return
		}
		goexit := r == nil && !finished
		finished = true
		e.finish(p, r)
		if goexit {
			// runtime.Goexit ends this coroutine, and iter.Pull would
			// re-raise it in the run loop: hand control on first, and
			// stay suspended until shutdown ends the coroutine.
			e.due = e.advance(p)
			e.zombies = append(e.zombies, w)
			w.yield(struct{}{})
		}
	}()
	body := p.body
	p.body = nil
	body(p)
	return true
}

// finish marks p done. r is what its body panicked with, nil when it
// returned: a failure (Process.Fail, a continuation's error) becomes a
// ProcessError, any other value a panic report.
func (e *Engine) finish(p *Process, r interface{}) {
	p.state = stateDone
	if r != nil && e.err == nil {
		if f, isFail := r.(failure); isFail {
			// A cooperative abort: keep the error chain intact so
			// callers can errors.Is/As through it.
			e.err = &ProcessError{Process: p.Name(), Err: f.err}
		} else {
			e.err = fmt.Errorf("sim: process %q panicked: %v", p.Name(), r)
		}
	}
	e.trace(p, evDone)
}

// compactAlive drops finished processes from the process table once they
// outnumber the live ones, filtering in place so the backing array is
// reused. Long runs that spawn transient processes (forks, parallel
// regions inside loops) would otherwise grow alive without bound and pay
// for it on every telemetry sample.
func (e *Engine) compactAlive() {
	if e.done <= 32 || e.done <= len(e.alive)/2 {
		return
	}
	live := e.alive[:0]
	for _, p := range e.alive {
		if p.state != stateDone {
			live = append(live, p)
		}
	}
	clear(e.alive[len(live):]) // so finished processes are collectable
	e.alive = live
	e.done = 0
}

// blockedProcesses returns the names of processes stuck on a
// synchronization object, sorted.
func (e *Engine) blockedProcesses() []string {
	var out []string
	for _, p := range e.alive {
		if p.state == stateBlocked {
			out = append(out, p.Name())
		}
	}
	sort.Strings(out)
	return out
}

// interruptCause boxes the Interrupt cause so it fits an atomic.Pointer.
type interruptCause struct{ err error }

// Interrupt requests that the running simulation stop: the event loop
// checks between events, unwinds every parked process, and Run/RunUntil
// return an *InterruptError wrapping cause. Unlike every other Engine
// method, Interrupt is safe to call from any goroutine — it is how a
// caller plumbs context cancellation into a run without polling. Calling
// it on an engine that is not running makes the next Run return
// immediately; later calls keep the first cause.
func (e *Engine) Interrupt(cause error) {
	if cause == nil {
		cause = fmt.Errorf("sim: interrupted")
	}
	e.interrupted.CompareAndSwap(nil, &interruptCause{err: cause})
}

// WatchContext interrupts the engine with ctx's cause once ctx is done,
// until the returned stop is called. stop waits for an interrupt already
// under way, so no callback outlives it. No goroutine waits on ctx in the
// meantime, and a context that can never be done costs nothing.
func (e *Engine) WatchContext(ctx context.Context) (stop func()) {
	fired := make(chan struct{})
	stopWatch := context.AfterFunc(ctx, func() {
		e.Interrupt(context.Cause(ctx))
		close(fired)
	})
	return func() {
		if !stopWatch() {
			<-fired
		}
	}
}

// InterruptError reports a run stopped by Engine.Interrupt. It unwraps to
// the interrupt cause, so errors.Is(err, context.DeadlineExceeded) and
// friends see through it.
type InterruptError struct {
	Time  float64
	Cause error
}

func (e *InterruptError) Error() string {
	return fmt.Sprintf("sim: run interrupted at t=%g: %v", e.Time, e.Cause)
}

func (e *InterruptError) Unwrap() error { return e.Cause }

// ProcessError reports a simulation process that aborted the run through
// Process.Fail: the typed alternative to panicking with an error, which
// would flatten the chain into a string. It unwraps to the process's
// error, so callers can errors.Is/As through a failed run (for example to
// distinguish an expression-evaluation failure from a DeadlockError).
type ProcessError struct {
	Process string
	Err     error
}

func (p *ProcessError) Error() string {
	return fmt.Sprintf("sim: process %q failed: %v", p.Process, p.Err)
}

func (p *ProcessError) Unwrap() error { return p.Err }

// DeadlockError reports a simulation that ended with blocked processes.
type DeadlockError struct {
	Time      float64
	Processes []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%g: blocked processes: %s",
		d.Time, strings.Join(d.Processes, ", "))
}
