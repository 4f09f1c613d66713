package sim

import "math"

// Sample is one point of the engine's simulated-time telemetry series: a
// consistent snapshot of every registered facility, mailbox and the
// scheduler itself at simulated time Time.
type Sample struct {
	// Time is the simulated time of the snapshot.
	Time float64 `json:"t"`
	// FacilityUtilization maps facility name to the time-average fraction
	// of busy servers over [0, Time] (FCFS and processor-sharing alike).
	FacilityUtilization map[string]float64 `json:"facility_utilization,omitempty"`
	// FacilityQueue maps facility name to the instantaneous queue length:
	// waiting processes for FCFS facilities, active jobs for PS facilities.
	FacilityQueue map[string]int `json:"facility_queue,omitempty"`
	// MailboxDepth maps mailbox name to the number of buffered messages.
	MailboxDepth map[string]int `json:"mailbox_depth,omitempty"`
	// EventQueueLen is the number of pending events in the scheduler heap.
	EventQueueLen int `json:"event_queue_len"`
	// LiveProcesses is the number of spawned processes not yet done.
	LiveProcesses int `json:"live_processes"`
}

// Observer receives the engine's telemetry: discrete process lifecycle
// events and periodic state samples. Implementations run inside the
// simulation loop and must not call back into the engine.
type Observer interface {
	// Event reports one process lifecycle transition: "spawn", "run",
	// "hold", "block" or "done".
	Event(t float64, p *Process, what string)
	// Sample reports one telemetry snapshot. Samples are emitted in
	// nondecreasing time order.
	Sample(s Sample)
}

// SetObserver installs an observer and its sampling interval in simulated
// time units. An interval of 0 samples whenever simulated time advances
// (at most one sample per distinct timestamp); a positive interval
// samples at most once per interval. Pass nil to remove the observer.
//
// Run additionally emits one final sample at the end of the simulation so
// short runs always produce at least one point.
func (e *Engine) SetObserver(o Observer, interval float64) {
	e.obs = o
	e.sampleEvery = max(interval, 0)
	e.nextSample = 0
	e.lastSampled = -1
}

// Observer returns the installed observer, or nil.
func (e *Engine) Observer() Observer { return e.obs }

// EventQueueLen returns the number of pending events in the scheduler
// heap.
func (e *Engine) EventQueueLen() int { return len(e.events) }

// LiveProcesses returns the number of spawned processes that have not yet
// finished.
func (e *Engine) LiveProcesses() int {
	n := 0
	for _, p := range e.alive {
		if p.state != stateDone {
			n++
		}
	}
	return n
}

// maybeSample emits a telemetry sample when the sampling threshold has
// been crossed. It is called from the run loop after each event executes,
// so samples see the post-event state of the simulation.
func (e *Engine) maybeSample() {
	if e.obs == nil || e.now < e.nextSample {
		return
	}
	e.sample()
	if e.sampleEvery > 0 {
		for e.nextSample <= e.now {
			e.nextSample += e.sampleEvery
		}
	} else {
		// Auto mode: once per distinct timestamp. Any strictly later time
		// crosses the threshold again.
		e.nextSample = math.Nextafter(e.now, math.Inf(1))
	}
}

// finalSample emits the end-of-run sample unless the final time was
// already sampled.
func (e *Engine) finalSample() {
	if e.obs == nil || e.lastSampled == e.now {
		return
	}
	e.sample()
}

// FacilityUtilization maps every facility created on the engine (FCFS
// and processor-sharing) to its time-average utilization over [0, Now()]
// — what a telemetry sample taken now reports. Read after Run, it is the
// utilization at the end of the run.
func (e *Engine) FacilityUtilization() map[string]float64 {
	out := make(map[string]float64, len(e.facilities)+len(e.psFacilities))
	for _, f := range e.facilities {
		out[f.name] = f.Utilization()
	}
	for _, f := range e.psFacilities {
		out[f.name] = f.Utilization()
	}
	return out
}

// sample captures the current engine state and hands it to the observer.
func (e *Engine) sample() {
	s := Sample{
		Time:          e.now,
		EventQueueLen: len(e.events),
		LiveProcesses: e.LiveProcesses(),
	}
	if len(e.facilities) > 0 || len(e.psFacilities) > 0 {
		s.FacilityUtilization = e.FacilityUtilization()
		s.FacilityQueue = make(map[string]int, len(e.facilities)+len(e.psFacilities))
		for _, f := range e.facilities {
			s.FacilityQueue[f.name] = f.QueueLength()
		}
		for _, f := range e.psFacilities {
			s.FacilityQueue[f.name] = f.ActiveJobs()
		}
	}
	if len(e.mailboxes) > 0 {
		s.MailboxDepth = make(map[string]int, len(e.mailboxes))
		for _, m := range e.mailboxes {
			s.MailboxDepth[m.name] = m.Pending()
		}
	}
	e.lastSampled = e.now
	e.obs.Sample(s)
}
