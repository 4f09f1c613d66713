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
	bw.WriteString("# trace-version: 1\n# model: ")
	bw.WriteString(tr.Model)
	bw.WriteByte('\n')
	for _, m := range tr.Meta {
		bw.WriteString("# meta ")
		bw.WriteString(m.Key)
		bw.WriteString(": ")
		bw.WriteString(m.Value)
		bw.WriteByte('\n')
	}
	// Each event line is built in one reused buffer, without formatting
	// verbs or an allocation per line.
	var line []byte
	for i := range tr.Events {
		ev := &tr.Events[i]
		line = strconv.AppendFloat(line[:0], ev.T, 'g', 17, 64)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(ev.PID), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(ev.TID), 10)
		line = append(line, '\t')
		line = append(line, ev.Kind...)
		line = append(line, '\t')
		line = append(line, ev.Elem...)
		line = append(line, '\t')
		line = append(line, ev.Name...)
		line = append(line, '\n')
		bw.Write(line)
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
// elements) rather than an error, so degenerate runs report cleanly. Of
// several lanes left open, the error names the one whose first enter
// comes first.
//
// It makes one pass over the events. Lanes, processes and element names
// each get a dense slot, found through a cache of the previous event's
// key before a map; each element's statistics accumulate in event order,
// and the maps of the Summary are built once at the end.
func Summarize(tr *Trace) (*Summary, error) {
	if tr == nil || len(tr.Events) == 0 {
		return &Summary{
			Elements:  map[string]ElemStat{},
			BusyByPID: map[int]float64{},
		}, nil
	}
	events := tr.Events
	var (
		procs  []procSlot
		lanes  []laneSlot
		stats  []ElemStat
		procAt = slotIndex[int]{at: map[int]int{}}
		laneAt = slotIndex[[2]int]{at: map[[2]int]int{}}
		statAt = slotIndex[string]{at: map[string]int{}}
	)
	makespan := events[0].T
	for i := range events {
		ev := &events[i]
		if ev.T > makespan {
			makespan = ev.T
		}
		pi, added := procAt.find(ev.PID)
		if added {
			procs = append(procs, procSlot{pid: ev.PID, idle: true})
		}
		p := &procs[pi]
		switch ev.Kind {
		case Enter:
			li, added := laneAt.find([2]int{ev.PID, ev.TID})
			if added {
				lanes = append(lanes, laneSlot{pid: ev.PID, tid: ev.TID})
			}
			l := &lanes[li]
			l.open = append(l.open, i)
			if p.depth == 0 {
				p.busyStart = ev.T
			}
			p.depth++
		case Leave:
			li, added := laneAt.find([2]int{ev.PID, ev.TID})
			if added {
				lanes = append(lanes, laneSlot{pid: ev.PID, tid: ev.TID})
			}
			l := &lanes[li]
			st := l.open
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
				if events[st[j]].Elem == ev.Elem {
					match = j
					break
				}
			}
			if match < 0 {
				return nil, fmt.Errorf("trace: mismatched enter/leave: %q vs %q", events[st[len(st)-1]].Name, ev.Name)
			}
			dt := ev.T - events[st[match]].T
			l.open = append(st[:match], st[match+1:]...)
			ei, added := statAt.find(ev.Name)
			if added {
				stats = append(stats, ElemStat{Name: ev.Name, Min: dt, Max: dt})
			}
			e := &stats[ei]
			e.Count++
			e.Total += dt
			if dt < e.Min {
				e.Min = dt
			}
			if dt > e.Max {
				e.Max = dt
			}
			p.depth--
			if p.depth == 0 {
				p.busy += ev.T - p.busyStart
				p.idle = false
			}
		}
	}
	for _, l := range lanes {
		if len(l.open) > 0 {
			return nil, fmt.Errorf("trace: %d unclosed element(s) on pid %d tid %d (first: %q)",
				len(l.open), l.pid, l.tid, events[l.open[0]].Name)
		}
	}
	sum := &Summary{
		Makespan:  makespan,
		Elements:  make(map[string]ElemStat, len(stats)),
		BusyByPID: make(map[int]float64, len(procs)),
		Processes: len(procs),
	}
	for _, e := range stats {
		sum.Elements[e.Name] = e
	}
	for _, p := range procs {
		if !p.idle {
			sum.BusyByPID[p.pid] = p.busy
		}
	}
	return sum, nil
}

// slotIndex numbers keys densely in the order they are first found. A
// lookup of the previous key skips the map.
type slotIndex[K comparable] struct {
	at   map[K]int
	last K
	slot int // the previous key's slot + 1; 0 before the first lookup
}

// find returns k's slot, and whether k was new: then its slot is the
// next one, which the caller appends.
func (x *slotIndex[K]) find(k K) (slot int, added bool) {
	if x.slot > 0 && x.last == k {
		return x.slot - 1, false
	}
	slot, ok := x.at[k]
	if !ok {
		slot = len(x.at)
		x.at[k] = slot
	}
	x.last, x.slot = k, slot+1
	return slot, !ok
}

// laneSlot is one (pid, tid) lane: the positions in the trace of its
// enters that no leave has closed yet, innermost last.
type laneSlot struct {
	pid, tid int
	open     []int
}

// procSlot is one process: how many of its elements are open, when the
// current busy interval began, and its busy time so far. idle holds until
// a leave first closes a busy interval, so a process that never had one
// has no BusyByPID entry.
type procSlot struct {
	pid       int
	depth     int
	busyStart float64
	busy      float64
	idle      bool
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
