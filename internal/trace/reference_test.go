package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// referenceSummarize is the map-based Summarize that the one-pass
// Summarize replaced, kept verbatim as the reference of
// TestSummarizeMatchesReference. It names an arbitrary open lane in its
// "unclosed element(s)" error: the lane comes from iterating a map.
func referenceSummarize(tr *Trace) (*Summary, error) {
	if tr == nil || len(tr.Events) == 0 {
		return &Summary{
			Elements:  map[string]ElemStat{},
			BusyByPID: map[int]float64{},
		}, nil
	}
	type key struct{ pid, tid int }
	stacks := map[key][]Event{}
	depth := map[int]int{}
	busyStart := map[int]float64{}
	sum := &Summary{
		Makespan:  tr.Makespan(),
		Elements:  map[string]ElemStat{},
		BusyByPID: map[int]float64{},
	}
	pids := map[int]bool{}
	for _, ev := range tr.Events {
		pids[ev.PID] = true
		switch ev.Kind {
		case Enter:
			k := key{ev.PID, ev.TID}
			stacks[k] = append(stacks[k], ev)
			if depth[ev.PID] == 0 {
				busyStart[ev.PID] = ev.T
			}
			depth[ev.PID]++
		case Leave:
			k := key{ev.PID, ev.TID}
			st := stacks[k]
			if len(st) == 0 {
				return nil, fmt.Errorf("trace: leave %q at t=%g on pid %d tid %d without matching enter",
					ev.Name, ev.T, ev.PID, ev.TID)
			}
			// Pair with the innermost enter of the same element. Fork
			// branches run concurrently on one (pid, tid) lane, so their
			// enters/leaves may interleave; for properly nested traces
			// the innermost match is simply the top of the stack.
			match := -1
			for j := len(st) - 1; j >= 0; j-- {
				if st[j].Elem == ev.Elem {
					match = j
					break
				}
			}
			if match < 0 {
				return nil, fmt.Errorf("trace: mismatched enter/leave: %q vs %q", st[len(st)-1].Name, ev.Name)
			}
			top := st[match]
			stacks[k] = append(st[:match], st[match+1:]...)
			dt := ev.T - top.T
			s := sum.Elements[ev.Name]
			if s.Count == 0 {
				s.Name = ev.Name
				s.Min = dt
				s.Max = dt
			}
			s.Count++
			s.Total += dt
			if dt < s.Min {
				s.Min = dt
			}
			if dt > s.Max {
				s.Max = dt
			}
			sum.Elements[ev.Name] = s
			depth[ev.PID]--
			if depth[ev.PID] == 0 {
				sum.BusyByPID[ev.PID] += ev.T - busyStart[ev.PID]
			}
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return nil, fmt.Errorf("trace: %d unclosed element(s) on pid %d tid %d (first: %q)",
				len(st), k.pid, k.tid, st[0].Name)
		}
	}
	sum.Processes = len(pids)
	return sum, nil
}

// checkSummarizeMatchesReference requires Summarize and the reference to
// agree on tr: equal summaries, floats bit for bit, or the same error
// text. The one allowed difference is which open lane an "unclosed
// element(s)" error names, since the reference picks one by iterating a
// map. Lanes pair their events independently, so the lane Summarize
// names must be one the reference reports alone when given only that
// lane's events.
func checkSummarizeMatchesReference(t *testing.T, tr *Trace) {
	t.Helper()
	got, gerr := Summarize(tr)
	want, werr := referenceSummarize(tr)
	switch {
	case gerr == nil && werr == nil:
		if diff := summaryDiff(got, want); diff != "" {
			t.Fatalf("summary differs from the reference: %s", diff)
		}
	case gerr == nil || werr == nil:
		t.Fatalf("error mismatch: got %v, reference %v", gerr, werr)
	case gerr.Error() != werr.Error():
		var n, pid, tid int
		_, perr := fmt.Sscanf(gerr.Error(), "trace: %d unclosed element(s) on pid %d tid %d", &n, &pid, &tid)
		if perr != nil || !strings.Contains(werr.Error(), "unclosed element(s)") {
			t.Fatalf("error text differs:\n  got:       %v\n  reference: %v", gerr, werr)
		}
		lane := &Trace{}
		for _, ev := range tr.Events {
			if ev.PID == pid && ev.TID == tid {
				lane.Append(ev)
			}
		}
		if _, lerr := referenceSummarize(lane); lerr == nil || lerr.Error() != gerr.Error() {
			t.Fatalf("named lane is not one the reference finds open:\n  got:       %v\n  reference on that lane alone: %v", gerr, lerr)
		}
	}
}

// summaryDiff describes the first difference between two summaries, or
// returns "" when they are equal with every float bit-identical.
func summaryDiff(got, want *Summary) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Makespan, want.Makespan) {
		return fmt.Sprintf("makespan %v, want %v", got.Makespan, want.Makespan)
	}
	if got.Processes != want.Processes {
		return fmt.Sprintf("processes %d, want %d", got.Processes, want.Processes)
	}
	if len(got.Elements) != len(want.Elements) {
		return fmt.Sprintf("%d elements, want %d", len(got.Elements), len(want.Elements))
	}
	for name, w := range want.Elements {
		g, ok := got.Elements[name]
		if !ok || g.Name != w.Name || g.Count != w.Count ||
			!same(g.Total, w.Total) || !same(g.Min, w.Min) || !same(g.Max, w.Max) {
			return fmt.Sprintf("element %q: %+v, want %+v", name, g, w)
		}
	}
	if len(got.BusyByPID) != len(want.BusyByPID) {
		return fmt.Sprintf("busy pids %v, want %v", got.BusyByPID, want.BusyByPID)
	}
	for pid, w := range want.BusyByPID {
		if g, ok := got.BusyByPID[pid]; !ok || !same(g, w) {
			return fmt.Sprintf("pid %d busy %v (present %v), want %v", pid, g, ok, w)
		}
	}
	return ""
}

// randomTrace is a seeded trace over a few pids and tids: nested and
// interleaved elements on one lane (as fork branches record them),
// sends, receives and marks, pids that only send or mark, and, when
// illPaired, leaves with no open enter, leaves of elements not open and
// elements left open.
func randomTrace(rng *rand.Rand, events int, illPaired bool) *Trace {
	tr := &Trace{Model: "random"}
	type lane struct{ pid, tid int }
	open := map[lane][]int{} // element numbers, innermost last
	lanes := []lane{}
	name := func(e int) string {
		// A few elements share a name, so one name gathers several.
		return fmt.Sprintf("E%d", e%7)
	}
	// Durations with inexact sums, so the order of float additions shows.
	steps := []float64{0, 0, 0.1, 0.2, 0.3, 1e-9, 1.5, 7}
	t := 0.0
	for range events {
		t += steps[rng.Intn(len(steps))]
		l := lane{rng.Intn(3), rng.Intn(3)}
		switch r := rng.Intn(20); {
		case r < 8:
			e := rng.Intn(12)
			if len(open[l]) == 0 {
				lanes = append(lanes, l)
			}
			open[l] = append(open[l], e)
			tr.Append(Event{T: t, PID: l.pid, TID: l.tid, Kind: Enter, Elem: fmt.Sprint("e", e), Name: name(e)})
		case r < 16:
			if len(lanes) == 0 {
				continue
			}
			l = lanes[rng.Intn(len(lanes))]
			st := open[l]
			if len(st) == 0 {
				continue
			}
			// Mostly the innermost element; sometimes one further out,
			// as interleaved fork branches close.
			j := len(st) - 1
			if rng.Intn(3) == 0 {
				j = rng.Intn(len(st))
			}
			e := st[j]
			open[l] = append(st[:j], st[j+1:]...)
			tr.Append(Event{T: t, PID: l.pid, TID: l.tid, Kind: Leave, Elem: fmt.Sprint("e", e), Name: name(e)})
		default:
			kind := []Kind{Send, Recv, Mark}[rng.Intn(3)]
			pid := l.pid
			if rng.Intn(2) == 0 {
				pid = 5 + rng.Intn(3) // never runs an element
			}
			tr.Append(Event{T: t, PID: pid, TID: l.tid, Kind: kind, Elem: "m", Name: "msg"})
		}
		if illPaired && rng.Intn(events) == 0 {
			e := 100 + rng.Intn(3)
			tr.Append(Event{T: t, PID: l.pid, TID: l.tid, Kind: Leave, Elem: fmt.Sprint("e", e), Name: name(e)})
		}
	}
	if illPaired && rng.Intn(2) == 0 {
		return tr // leave whatever is open
	}
	for _, l := range lanes {
		st := open[l]
		for len(st) > 0 {
			j := rng.Intn(len(st))
			t += steps[rng.Intn(len(steps))]
			tr.Append(Event{T: t, PID: l.pid, TID: l.tid, Kind: Leave, Elem: fmt.Sprint("e", st[j]), Name: name(st[j])})
			st = append(st[:j], st[j+1:]...)
		}
		open[l] = nil
	}
	return tr
}

// Summarize agrees with the map-based reference on every golden run trace
// and on seeded random traces, well paired and not.
func TestSummarizeMatchesReference(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*", "run.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden run traces found")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(data, []byte("sha256:")) {
			continue // a digest golden: the trace itself is not kept
		}
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(filepath.Base(filepath.Dir(path)), func(t *testing.T) {
			checkSummarizeMatchesReference(t, tr)
		})
	}
	rng := rand.New(rand.NewSource(1))
	outcomes := map[bool]int{} // reference succeeded -> traces
	for i := range 400 {
		tr := randomTrace(rng, 1+rng.Intn(200), i%2 == 1)
		_, err := referenceSummarize(tr)
		outcomes[err == nil]++
		t.Run(fmt.Sprint("random-", i), func(t *testing.T) {
			checkSummarizeMatchesReference(t, tr)
		})
	}
	// Both outcomes must be well represented, or the random traces test
	// only one side of Summarize.
	if outcomes[true] < 100 || outcomes[false] < 100 {
		t.Errorf("random traces: %d summarized, %d refused; want at least 100 of each",
			outcomes[true], outcomes[false])
	}
}

// With several lanes left open, the error names the lane whose first
// enter comes first, on every run. Lane (0, 1) enters first and closes
// its first element; lane (1, 0) then leaves one open, and so does lane
// (0, 1) again, so the first unclosed enter is not the first lane's.
func TestSummarizeUnclosedLaneDeterministic(t *testing.T) {
	tr := &Trace{}
	tr.Append(Event{T: 0, PID: 0, TID: 1, Kind: Enter, Elem: "a", Name: "A"})
	tr.Append(Event{T: 1, PID: 0, TID: 1, Kind: Leave, Elem: "a", Name: "A"})
	tr.Append(Event{T: 2, PID: 1, TID: 0, Kind: Enter, Elem: "b", Name: "B"})
	tr.Append(Event{T: 3, PID: 2, TID: 0, Kind: Enter, Elem: "c", Name: "C"})
	tr.Append(Event{T: 4, PID: 0, TID: 1, Kind: Enter, Elem: "d", Name: "D"})
	tr.Append(Event{T: 5, PID: 0, TID: 0, Kind: Enter, Elem: "e", Name: "E"})
	const want = `trace: 1 unclosed element(s) on pid 0 tid 1 (first: "D")`
	for range 50 {
		_, err := Summarize(tr)
		if err == nil || err.Error() != want {
			t.Fatalf("error %v, want %s", err, want)
		}
	}
}
