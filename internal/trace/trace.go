// Package trace implements the trace file (TF) of the paper's Figure 2
// architecture: "Element TF represents the trace file, which is generated
// by the Performance Estimator as a result of the performance evaluation.
// Teuta uses TF for the visualization of performance results."
//
// A trace is a time-ordered list of events recording when each performance
// modeling element started and finished executing on which process/thread.
// The package provides the on-disk format (a line-oriented text format
// that diffs and greps well), summary statistics, and an ASCII Gantt
// renderer standing in for Teuta's performance visualization components.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies a trace event.
type Kind string

const (
	// Enter marks the start of a modeling element's execution.
	Enter Kind = "enter"
	// Leave marks its completion.
	Leave Kind = "leave"
	// Send marks a message departure (point-to-point or collective).
	Send Kind = "send"
	// Recv marks a message arrival.
	Recv Kind = "recv"
	// Mark is a free-form annotation.
	Mark Kind = "mark"
)

// Event is one trace record.
type Event struct {
	T    float64
	PID  int
	TID  int
	Kind Kind
	// Elem is the model element ID; Name its human-readable name.
	Elem string
	Name string
}

// Trace is a recorded simulation run.
type Trace struct {
	// Model is the model name the run evaluated.
	Model string
	// Meta carries run parameters (system parameters, globals) as ordered
	// key/value pairs.
	Meta []MetaEntry
	// Events in emission order (non-decreasing T).
	Events []Event
}

// MetaEntry is one trace metadata pair.
type MetaEntry struct{ Key, Value string }

// SetMeta appends or replaces a metadata entry.
func (tr *Trace) SetMeta(key, value string) {
	for i := range tr.Meta {
		if tr.Meta[i].Key == key {
			tr.Meta[i].Value = value
			return
		}
	}
	tr.Meta = append(tr.Meta, MetaEntry{key, value})
}

// GetMeta returns a metadata value.
func (tr *Trace) GetMeta(key string) (string, bool) {
	for _, m := range tr.Meta {
		if m.Key == key {
			return m.Value, true
		}
	}
	return "", false
}

// Append records an event. A full slice doubles: append alone grows a
// large slice by about a quarter at a time, which allocates several times
// the final size over a long run.
func (tr *Trace) Append(ev Event) {
	if len(tr.Events) == cap(tr.Events) {
		tr.Events = slices.Grow(tr.Events, max(len(tr.Events), 16))
	}
	tr.Events = append(tr.Events, ev)
}

// Makespan returns the time of the last event (0 for an empty trace).
func (tr *Trace) Makespan() float64 {
	if len(tr.Events) == 0 {
		return 0
	}
	last := tr.Events[0].T
	for _, ev := range tr.Events {
		if ev.T > last {
			last = ev.T
		}
	}
	return last
}

// Write renders the trace in the text format:
//
//	# trace-version: 1
//	# model: sample
//	# meta processes: 4
//	0.000000000	0	0	enter	e2	A1
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# trace-version: 1")
	fmt.Fprintf(bw, "# model: %s\n", tr.Model)
	for _, m := range tr.Meta {
		fmt.Fprintf(bw, "# meta %s: %s\n", m.Key, m.Value)
	}
	for _, ev := range tr.Events {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%s\t%s\n",
			strconv.FormatFloat(ev.T, 'g', 17, 64), ev.PID, ev.TID, ev.Kind, ev.Elem, ev.Name)
	}
	return bw.Flush()
}

// Save writes the trace to a file.
func Save(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := Write(f, tr); err != nil {
		return err
	}
	return f.Close()
}

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			switch {
			case strings.HasPrefix(body, "model:"):
				tr.Model = strings.TrimSpace(strings.TrimPrefix(body, "model:"))
			case strings.HasPrefix(body, "meta "):
				kv := strings.SplitN(strings.TrimPrefix(body, "meta "), ":", 2)
				if len(kv) == 2 {
					tr.SetMeta(strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1]))
				}
			}
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 6 {
			return nil, fmt.Errorf("trace: line %d: want 6 fields, got %d", lineNo, len(fields))
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time %q", lineNo, fields[0])
		}
		pid, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad pid %q", lineNo, fields[1])
		}
		tid, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad tid %q", lineNo, fields[2])
		}
		tr.Append(Event{T: t, PID: pid, TID: tid, Kind: Kind(fields[3]), Elem: fields[4], Name: fields[5]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return tr, nil
}

// Load reads a trace file from disk.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	tr, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return tr, nil
}

// ElemStat summarizes one modeling element's executions.
type ElemStat struct {
	Name  string
	Count int
	Total float64
	Min   float64
	Max   float64
}

// Mean returns the average execution time.
func (s ElemStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Total / float64(s.Count)
}

// Summary aggregates a trace.
type Summary struct {
	Makespan float64
	// Elements maps element name to its statistics.
	Elements map[string]ElemStat
	// BusyByPID maps process id to total busy time (union of intervals in
	// which at least one element was executing on that process).
	BusyByPID map[int]float64
	// Processes is the number of distinct PIDs seen.
	Processes int
}

// Summarize computes per-element and per-process statistics by matching
// enter/leave pairs per (pid, tid) in LIFO order (elements nest).
//
// A nil or zero-event trace yields an empty summary (zero makespan, no
// elements) rather than an error, so degenerate runs report cleanly.
func Summarize(tr *Trace) (*Summary, error) {
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

// Report renders a summary as a table, element rows sorted by descending
// total time.
func (s *Summary) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan: %.6g\n", s.Makespan)
	fmt.Fprintf(&sb, "processes: %d\n", s.Processes)
	var names []string
	for n := range s.Elements {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := s.Elements[names[i]], s.Elements[names[j]]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(&sb, "%-20s %8s %12s %12s %12s %12s\n", "element", "count", "total", "mean", "min", "max")
	for _, n := range names {
		e := s.Elements[n]
		fmt.Fprintf(&sb, "%-20s %8d %12.6g %12.6g %12.6g %12.6g\n",
			n, e.Count, e.Total, e.Mean(), e.Min, e.Max)
	}
	var pidList []int
	for pid := range s.BusyByPID {
		pidList = append(pidList, pid)
	}
	sort.Ints(pidList)
	for _, pid := range pidList {
		busy := s.BusyByPID[pid]
		util := 0.0
		if s.Makespan > 0 {
			util = busy / s.Makespan
		}
		fmt.Fprintf(&sb, "pid %3d: busy %.6g (%.1f%%)\n", pid, busy, util*100)
	}
	return sb.String()
}
