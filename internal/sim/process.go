package sim

import "errors"

// errPoisoned unwinds parked processes at engine shutdown.
var errPoisoned = errors.New("sim: engine shut down")

// procState tracks where a process is in its lifecycle.
type procState uint8

const (
	// stateReady: spawned, not yet dispatched for the first time.
	stateReady procState = iota
	// stateRunning: currently executing (at most one process at a time).
	stateRunning
	// stateHolding: waiting for a scheduled timer (Hold).
	stateHolding
	// stateBlocked: waiting on a facility, mailbox, barrier or event.
	stateBlocked
	// stateDone: finished.
	stateDone
)

// Process is one simulated thread of control. All methods must be called
// from within the process's own function; calling them from another
// goroutine corrupts the simulation.
type Process struct {
	eng   *Engine
	name  string
	body  func(*Process) // until the first dispatch
	w     *worker        // coroutine running the process; nil until it starts
	cont  Continuation   // the body of a continuation process (SpawnContinuation)
	state procState
	named bool // name holds the name; a continuation's is read on demand

	// msg carries a mailbox delivery to a woken receiver.
	msg interface{}
}

// failure carries an error raised by Process.Fail through the panic
// unwind, letting the engine distinguish a cooperative abort (wrapped as
// *ProcessError, chain preserved) from a true panic (reported as such).
type failure struct{ err error }

// Fail aborts the simulation with err: the run's Run/RunUntil call
// returns a *ProcessError that wraps err, keeping the error chain intact
// for errors.Is/As. Fail does not return. A nil err is replaced by a
// generic failure error.
func (p *Process) Fail(err error) {
	if err == nil {
		err = errors.New("sim: process failed")
	}
	panic(failure{err: err})
}

// Name returns the process name given at Spawn, or the one a
// continuation supplies on the first call.
func (p *Process) Name() string {
	if !p.named {
		p.name, p.named = p.cont.Name(), true
	}
	return p.name
}

// Engine returns the owning engine.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() float64 { return p.eng.now }

// Hold advances the process's local time by dt: the process is suspended
// and resumes after dt simulated time units. This is CSIM's hold(): it is
// how an ActionPlus element charges its cost-function time to the clock.
func (p *Process) Hold(dt float64) {
	p.BeginHold(dt)
	p.pause()
}

// BeginHold is Hold's non-blocking half: it schedules the process's
// wakeup dt time units from now, and the process must then wait.
func (p *Process) BeginHold(dt float64) {
	dt = max(dt, 0)
	p.state = stateHolding
	p.eng.trace(p, evHold)
	p.eng.schedule(p.eng.now+dt, p, nil)
}

// Suspend parks a coroutine process until the wait a Begin method
// reported ends: a blocking method is its Begin method plus Suspend.
func (p *Process) Suspend() { p.pause() }

// block marks the process waiting with no scheduled wakeup; some
// synchronization object is responsible for scheduling its resume.
func (p *Process) block() {
	p.state = stateBlocked
	p.eng.trace(p, evBlock)
}

// TakeMessage returns the message a mailbox handed to the process while
// it waited in BeginReceive, and forgets it.
func (p *Process) TakeMessage() interface{} {
	msg := p.msg
	p.msg = nil
	return msg
}

// unblock schedules the process to resume at the current time.
func (p *Process) unblock() {
	p.eng.schedule(p.eng.now, p, nil)
}

// Yield lets other ready processes run at the same simulated time
// (equivalent to Hold(0)).
func (p *Process) Yield() { p.Hold(0) }
