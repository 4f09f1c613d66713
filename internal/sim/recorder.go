package sim

import "maps"

// Recorder is a ready-made Observer that accumulates telemetry samples in
// bounded memory and counts lifecycle events by kind. When the sample
// buffer fills it decimates: every other retained sample is dropped and
// only every 2nd (then 4th, 8th, ...) subsequent sample is kept, so
// arbitrarily long simulations keep an evenly thinned series instead of
// growing without bound. The most recent sample is always reported by
// Samples, so the end-of-run state is never lost to decimation.
type Recorder struct {
	maxSamples  int
	stride      int // keep every stride-th offered sample
	offered     int
	samples     []Sample
	last        Sample
	hasLast     bool
	eventCounts map[string]int64
}

// NewRecorder creates a recorder retaining at most maxSamples points
// (default 2048 when maxSamples <= 0).
func NewRecorder(maxSamples int) *Recorder {
	if maxSamples <= 0 {
		maxSamples = 2048
	}
	if maxSamples < 2 {
		maxSamples = 2
	}
	return &Recorder{
		maxSamples:  maxSamples,
		stride:      1,
		eventCounts: make(map[string]int64),
	}
}

// Event counts one lifecycle transition.
func (r *Recorder) Event(t float64, p *Process, what string) {
	r.eventCounts[what]++
}

// Sample retains the sample subject to the decimation policy.
func (r *Recorder) Sample(s Sample) {
	r.last, r.hasLast = s, true
	keep := r.offered%r.stride == 0
	r.offered++
	if !keep {
		return
	}
	if len(r.samples) >= r.maxSamples {
		kept := r.samples[:0]
		for i, smp := range r.samples {
			if i%2 == 0 {
				kept = append(kept, smp)
			}
		}
		r.samples = kept
		r.stride *= 2
	}
	r.samples = append(r.samples, s)
}

// Samples returns the retained series in time order, always including the
// most recent sample.
func (r *Recorder) Samples() []Sample {
	out := append([]Sample(nil), r.samples...)
	if r.hasLast && (len(out) == 0 || out[len(out)-1].Time < r.last.Time) {
		out = append(out, r.last)
	}
	return out
}

// EventCounts returns a copy of the per-kind lifecycle event counts
// ("spawn", "run", "hold", "block", "done").
func (r *Recorder) EventCounts() map[string]int64 {
	return maps.Clone(r.eventCounts)
}

// Reset clears all recorded state, keeping the configured capacity.
func (r *Recorder) Reset() {
	r.samples = r.samples[:0]
	r.stride = 1
	r.offered = 0
	r.hasLast = false
	r.eventCounts = make(map[string]int64)
}
