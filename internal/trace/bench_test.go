package trace

import (
	"fmt"
	"io"
	"testing"
)

// benchTrace is a run of four processes of 2,000 loop iterations each:
// the loop body nests two actions and sends one message, about 56k
// events in all.
func benchTrace() *Trace {
	tr := &Trace{Model: "bench"}
	tr.SetMeta("processes", "4")
	names := [...]string{"Loop", "Compute", "Exchange"}
	t := 0.0
	for i := range 2000 {
		for pid := range 4 {
			at := func(kind Kind, e int) {
				tr.Append(Event{T: t, PID: pid, Kind: kind, Elem: fmt.Sprint("e", e), Name: names[e]})
			}
			at(Enter, 0)
			at(Enter, 1)
			t += 0.001 * float64(1+i%3)
			at(Leave, 1)
			at(Enter, 2)
			at(Send, 2)
			t += 0.0005
			at(Leave, 2)
			at(Leave, 0)
		}
	}
	return tr
}

func BenchmarkSummarize(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
}

func BenchmarkWrite(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
}

// BenchmarkRecord records and finishes a run of 2^16 events.
func BenchmarkRecord(b *testing.B) {
	const n = 1 << 16
	ev := Event{T: 1, Kind: Enter, Elem: "e1", Name: "A"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r Recorder
		var tr Trace
		for j := 0; j < n; j++ {
			ev.T = float64(j)
			r.Record(ev)
		}
		r.Finish(&tr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}
