package sim

import (
	"fmt"
	"math"
)

// PSFacility is a processor-sharing service center: the facility's
// servers are shared equally among all in-service jobs, so with j active
// jobs on s servers each job progresses at rate min(1, s/j). This is the
// classic model of a timeslicing operating-system scheduler, and the
// alternative to the Facility's non-preemptive FCFS discipline for
// modeling oversubscribed processors (ablation: BenchmarkContention).
type PSFacility struct {
	eng     *Engine
	name    string
	servers int

	jobs       map[*psJob]struct{}
	lastUpdate float64
	generation uint64 // invalidates stale completion callbacks

	busyIntegral float64
	services     int
}

type psJob struct {
	remaining float64
	proc      *Process
}

// NewPSFacility creates a processor-sharing facility.
func (e *Engine) NewPSFacility(name string, servers int) *PSFacility {
	if servers < 1 {
		panic(fmt.Sprintf("sim: PS facility %q needs at least 1 server", name))
	}
	f := &PSFacility{eng: e, name: name, servers: servers, jobs: make(map[*psJob]struct{})}
	e.psFacilities = append(e.psFacilities, f)
	return f
}

// Name returns the facility name.
func (f *PSFacility) Name() string { return f.name }

// Servers returns the server count.
func (f *PSFacility) Servers() int { return f.servers }

// rate returns the current per-job progress rate.
func (f *PSFacility) rate() float64 {
	j := len(f.jobs)
	if j == 0 {
		return 0
	}
	return math.Min(1, float64(f.servers)/float64(j))
}

// advance applies elapsed progress to every active job.
func (f *PSFacility) advance() {
	now := f.eng.now
	dt := now - f.lastUpdate
	if dt > 0 && len(f.jobs) > 0 {
		r := f.rate()
		for job := range f.jobs {
			job.remaining -= r * dt
		}
		f.busyIntegral += math.Min(float64(len(f.jobs)), float64(f.servers)) * dt
	}
	f.lastUpdate = now
}

// clockTick returns the resolution of the simulation clock at its current
// value: the smallest dt for which now+dt > now in float64.
func (f *PSFacility) clockTick() float64 {
	now := f.eng.now
	tick := math.Nextafter(now, math.Inf(1)) - now
	if tick <= 0 { // now == 0
		tick = 5e-324
	}
	return tick
}

// reschedule plans the next completion callback.
func (f *PSFacility) reschedule() {
	f.generation++
	if len(f.jobs) == 0 {
		return
	}
	r := f.rate()
	next := math.Inf(1)
	for job := range f.jobs {
		if t := job.remaining / r; t < next {
			next = t
		}
	}
	next = max(next, 0)
	// Clock-resolution guard: a wakeup below the clock's ULP would fire
	// at the *same* timestamp, advance() would see dt == 0, and the
	// facility would loop forever without progress. Pad the delay so the
	// clock moves; complete() treats the overshoot as done work.
	if tick := f.clockTick(); next < 2*tick {
		next = 2 * tick
	}
	gen := f.generation
	f.eng.After(next, func() { f.complete(gen) })
}

// complete finishes every job whose remaining work reached zero.
func (f *PSFacility) complete(gen uint64) {
	if gen != f.generation {
		return // a later arrival/departure superseded this callback
	}
	f.advance()
	// Absolute epsilon for float drift, plus a clock-resolution epsilon:
	// work below rate * ulp(now) can never advance the clock again.
	eps := math.Max(1e-12, 4*f.rate()*f.clockTick())
	for job := range f.jobs {
		if job.remaining <= eps {
			delete(f.jobs, job)
			f.services++
			job.proc.unblock()
		}
	}
	f.reschedule()
}

// Use runs one job of the given service demand to completion under
// processor sharing; the calling process blocks until its job finishes.
func (f *PSFacility) Use(p *Process, serviceTime float64) {
	if f.BeginUse(p, serviceTime) {
		p.pause()
	}
}

// BeginUse is Use's non-blocking half: it starts the job and reports
// that the process must wait for it to finish (false when there is no
// work to do).
func (f *PSFacility) BeginUse(p *Process, serviceTime float64) (wait bool) {
	if serviceTime <= 0 {
		return false
	}
	f.advance()
	job := &psJob{remaining: serviceTime, proc: p}
	f.jobs[job] = struct{}{}
	f.reschedule()
	p.block()
	return true
}

// ActiveJobs returns the number of jobs currently in service.
func (f *PSFacility) ActiveJobs() int { return len(f.jobs) }

// CompletedServices returns the number of finished jobs.
func (f *PSFacility) CompletedServices() int { return f.services }

// Utilization returns the time-average fraction of busy servers.
func (f *PSFacility) Utilization() float64 {
	now := f.eng.now
	if now == 0 {
		return 0
	}
	// Read without advancing: advancing at a telemetry sample would split
	// the jobs' progress and change the run it observes (see
	// Facility.Utilization).
	busy := f.busyIntegral
	if dt := now - f.lastUpdate; dt > 0 && len(f.jobs) > 0 {
		busy += math.Min(float64(len(f.jobs)), float64(f.servers)) * dt
	}
	return busy / (now * float64(f.servers))
}
