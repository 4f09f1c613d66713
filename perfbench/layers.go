package main

import (
	"strconv"

	"prophet/internal/obs"
)

// spanTally accumulates what the program's own spans say about the
// layers under them, across many operations' span trees.
type spanTally struct {
	seconds map[string]float64 // total duration per span name
	count   map[string]int     // spans per name

	events    int64              // sim span "events" attribute, summed
	simDirect int                // sim spans with mode=direct
	lowerHits int                // lower spans with cache=hit
	solved    int                // analytic spans with outcome=solved
	selfMs    map[string]float64 // self time per layer, ms, summed
}

func newSpanTally() *spanTally {
	return &spanTally{
		seconds: map[string]float64{},
		count:   map[string]int{},
		selfMs:  map[string]float64{},
	}
}

// add folds one operation's span tree in: per-name totals and the
// self-time attribution of every span.
func (t *spanTally) add(root *obs.SpanNode) {
	walk(root, func(n *obs.SpanNode) {
		t.seconds[n.Name] += n.Seconds
		t.count[n.Name]++
		switch n.Name {
		case "sim":
			if ev, err := strconv.ParseInt(n.Attrs["events"], 10, 64); err == nil {
				t.events += ev
			}
			if n.Attrs["mode"] == "direct" {
				t.simDirect++
			}
		case "lower":
			if n.Attrs["cache"] == "hit" {
				t.lowerHits++
			}
		case "analytic":
			if n.Attrs["outcome"] == "solved" {
				t.solved++
			}
		}
	})
	attribute(root, t.selfMs)
}

// perOpMs is the total duration of the named spans per operation, in ms.
func (t *spanTally) perOpMs(name string, ops int) float64 {
	return ratio(t.seconds[name]*1e3, float64(ops))
}

// fill writes the span-derived per-layer metrics shared by every
// workload into vals; ops is the number of traced operations.
func (t *spanTally) fill(vals map[string]float64, ops int) {
	n := float64(ops)
	vals["interp.compile_ms"] = t.perOpMs("compile", ops)
	vals["lower.lower_ms"] = t.perOpMs("lower", ops)
	vals["lower.cache_hit_ratio"] = ratio(float64(t.lowerHits), float64(t.count["lower"]))
	vals["sim.simulate_ms"] = t.perOpMs("sim", ops)
	vals["sim.events_per_op"] = ratio(float64(t.events), n)
	vals["sim.ns_per_event"] = ratio(t.seconds["sim"]*1e9, float64(t.events))
	vals["sim.direct_share"] = ratio(float64(t.simDirect), float64(t.count["sim"]))
	vals["trace.summarize_ms"] = t.perOpMs("summarize", ops)
	vals["analytic.solve_ms"] = ratio(t.seconds["analytic"]*1e3, float64(t.count["analytic"]))
	for _, l := range layers {
		vals[l+".self_ms"] = ratio(t.selfMs[l], n)
	}
	vals["unattributed_ms"] = ratio(t.selfMs["unattributed"], n)
}

// zeroLayers sets every per-layer metric a workload does not reach to 0,
// so each workload prints the full per-layer list.
func zeroLayers(vals map[string]float64) {
	for _, nu := range perLayer {
		if _, ok := vals[nu[0]]; !ok {
			vals[nu[0]] = 0
		}
	}
}
