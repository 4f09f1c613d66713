package trace

import (
	"sync"
	"unsafe"
)

// blockLen is the number of events in one recording block: as many as
// fit in 32 KiB next to the link to the following block, so a block is
// one small-object size class and never a fresh large span to clear.
const blockLen = (32<<10 - int(unsafe.Sizeof((*block)(nil)))) / int(unsafe.Sizeof(Event{}))

// block is one fixed-size run of recorded events.
type block struct {
	events [blockLen]Event
	next   *block
}

// blocks holds recording blocks between runs. A block goes back cleared:
// an event's strings may be slices of a decoded model document, which a
// stale event would keep alive. Clearing costs no measurable time next
// to recording (BenchmarkRecord).
var blocks = sync.Pool{New: func() any { return new(block) }}

// Recorder collects a run's events into fixed-size blocks taken from a
// shared pool and hands them over as one exact-length Trace.Events. The
// zero Recorder is ready to use; it is not safe for concurrent use.
type Recorder struct {
	head, tail *block
	full       int     // blocks before tail, each holding blockLen events
	cur        []Event // tail's events recorded so far
}

// Record appends an event.
func (r *Recorder) Record(ev Event) {
	if len(r.cur) == cap(r.cur) {
		r.grow()
	}
	r.cur = append(r.cur, ev)
}

// grow links a fresh block from the pool after the full tail.
func (r *Recorder) grow() {
	b := blocks.Get().(*block)
	if r.tail == nil {
		r.head = b
	} else {
		r.tail.next = b
		r.full++
	}
	r.tail = b
	r.cur = b.events[:0]
}

// count returns the number of events recorded.
func (r *Recorder) count() int { return r.full*blockLen + len(r.cur) }

// Finish appends the recorded events to tr.Events with one allocation of
// exactly the combined length, then returns the blocks to the pool and
// leaves r empty. With nothing recorded tr is left as it is.
func (r *Recorder) Finish(tr *Trace) {
	if n := r.count(); n > 0 {
		events := make([]Event, len(tr.Events), len(tr.Events)+n)
		copy(events, tr.Events)
		for b := r.head; b != r.tail; b = b.next {
			events = append(events, b.events[:]...)
		}
		tr.Events = append(events, r.cur...)
	}
	r.Discard()
}

// Discard drops the recorded events, returns the blocks to the pool and
// leaves r empty.
func (r *Recorder) Discard() {
	for b := r.head; b != nil; {
		next := b.next
		if b == r.tail {
			clear(r.cur)
		} else {
			clear(b.events[:])
		}
		b.next = nil
		blocks.Put(b)
		b = next
	}
	*r = Recorder{}
}
