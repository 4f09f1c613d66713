package trace

import (
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"
)

// recordEvents returns n distinct events.
func recordEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{T: float64(i), PID: i % 3, TID: i % 2, Kind: Enter, Elem: "e", Name: "E"}
	}
	return out
}

// Finish hands over every recorded event in order, after the events the
// trace already held, in a slice of exactly that length; the recorder is
// empty afterwards and records the next run from scratch.
func TestRecorderFinish(t *testing.T) {
	for _, n := range []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 3*blockLen + 7} {
		evs := recordEvents(n)
		var r Recorder
		for _, ev := range evs {
			r.Record(ev)
		}
		if r.count() != n {
			t.Fatalf("count = %d, want %d", r.count(), n)
		}
		prior := Event{T: -1, Kind: Mark, Name: "prior"}
		tr := &Trace{Events: []Event{prior}}
		r.Finish(tr)
		want := append([]Event{prior}, evs...)
		if !slices.Equal(tr.Events, want) {
			t.Fatalf("n=%d: events differ from those recorded", n)
		}
		if cap(tr.Events) != len(want) {
			t.Errorf("n=%d: cap %d, want exactly %d", n, cap(tr.Events), len(want))
		}
		if r.count() != 0 {
			t.Errorf("n=%d: recorder holds %d events after Finish", n, r.count())
		}
		r.Record(prior)
		var again Trace
		r.Finish(&again)
		if !slices.Equal(again.Events, []Event{prior}) {
			t.Errorf("n=%d: reused recorder gave %v", n, again.Events)
		}
	}
}

// A run that records nothing, or whose events are discarded, leaves the
// trace's events as they were: nil for a fresh trace.
func TestRecorderEmptyAndDiscard(t *testing.T) {
	var r Recorder
	var tr Trace
	r.Finish(&tr)
	if tr.Events != nil {
		t.Errorf("empty recorder set events %v", tr.Events)
	}
	for _, ev := range recordEvents(2*blockLen + 1) {
		r.Record(ev)
	}
	r.Discard()
	if r.count() != 0 {
		t.Fatalf("count = %d after Discard", r.count())
	}
	r.Finish(&tr)
	if tr.Events != nil {
		t.Errorf("discarded events reached the trace: %d", len(tr.Events))
	}
}

// After warm-up, recording 2^16 events and finishing them into a trace
// allocates the exact-length event slice and nothing per block: the
// blocks come back from the pool. The collector is off while counting,
// since a collection empties the pool.
func TestRecorderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1 << 16
	ev := Event{T: 1, Kind: Enter, Elem: "e1", Name: "A"}
	run := func() {
		var r Recorder
		var tr Trace
		for i := 0; i < n; i++ {
			r.Record(ev)
		}
		r.Finish(&tr)
		if len(tr.Events) != n {
			t.Fatalf("%d events, want %d", len(tr.Events), n)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(3, run); allocs > 2 {
		t.Errorf("recording %d events allocated %v times, want at most 2", n, allocs)
	}
}

// A block is one 32 KiB size class: its events and the link to the next.
func TestBlockSize(t *testing.T) {
	var b block
	if size := int(unsafe.Sizeof(b)); size > 32<<10 || size+int(unsafe.Sizeof(Event{})) <= 32<<10 {
		t.Errorf("block is %d bytes; want the most events that fit 32 KiB", size)
	}
}
