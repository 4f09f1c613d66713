//go:build go1.23

package sim

import "iter"

// worker is a coroutine that runs process bodies, one after another, so
// a stack grown by one process serves the next. Only the run loop and
// shutdown resume it; it suspends itself with yield to hand control back.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool // false once stop has been called
	p     *Process            // the process running on the worker
}

// dispatch runs processes from next on until the run is over. Each due
// process's worker runs until it yields with the next process to run in
// e.due, nil when the loop is over.
func (e *Engine) dispatch(next *Process) {
	for next != nil {
		if next.cont != nil {
			e.resume(next)
			next = e.advance(next)
			continue
		}
		w := next.w
		if w == nil {
			w = e.start(next)
		}
		w.next()
		next = e.due
	}
}

// start puts process p, which has not run yet, on an idle or new worker.
func (e *Engine) start(p *Process) *worker {
	var w *worker
	if n := len(e.idle); n > 0 {
		w, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		w = new(worker)
		w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
			w.yield = yield
			e.work(w)
		})
	}
	w.p, p.w = p, w
	return w
}

// work runs w's process, then the event loop. A process that has not
// started yet continues on this coroutine; otherwise the worker hands
// control on and waits on the idle list.
func (e *Engine) work(w *worker) {
	for e.exec(w) {
		next := e.advance(w.p)
		if next != nil && next.w == nil && next.cont == nil {
			w.p, next.w = next, w
			continue
		}
		w.p = nil
		e.idle = append(e.idle, w)
		e.due = next
		if !w.yield(struct{}{}) {
			return
		}
	}
}

// pause runs the event loop until the process is due again. When another
// process is due first, pause yields control to the run loop, which
// resumes the process due.
func (p *Process) pause() {
	if p.cont != nil {
		panic("sim: a continuation process cannot block; it returns from Resume to wait")
	}
	e := p.eng
	if next := e.advance(p); next != p {
		e.due = next
		if !p.w.yield(struct{}{}) {
			panic(errPoisoned)
		}
	}
}

// shutdown unwinds every process that is still parked and ends the idle
// workers, so that no coroutine outlives Run, even after a deadlock,
// error or panic. Processes that never started and continuations have no
// worker and are simply marked done.
func (e *Engine) shutdown() {
	for _, p := range e.alive {
		if p.state == stateDone {
			continue
		}
		if p.w == nil {
			p.state, p.body = stateDone, nil
			continue
		}
		p.w.stop()
	}
	for _, w := range e.idle {
		w.stop()
	}
	for _, w := range e.zombies {
		// Ending a process that called runtime.Goexit re-raises the
		// Goexit in the caller of stop: give it a goroutine to end.
		ended := make(chan struct{})
		go func() { defer close(ended); w.stop() }()
		<-ended
	}
	e.alive, e.idle, e.zombies = nil, nil, nil
	e.done = 0
}
