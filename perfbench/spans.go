package main

import (
	"sort"
	"time"

	"prophet/internal/obs"
)

// spanLayer maps each span name the program records to the layer (the
// repository module) whose code runs inside it. A span's self time —
// its duration minus the part its children cover — is charged to its
// layer.
var spanLayer = map[string]string{
	"request":     "server", // server root: routing, JSON, request key, result cache
	"admission":   "server",
	"parse":       "server", // model-store lookup for a model_id reference
	"check":       "checker",
	"compile":     "interp",
	"lower":       "lower",
	"simulate":    "estimator", // estimator glue around the engine run
	"sim":         "sim",
	"summarize":   "trace",
	"trace-write": "trace",
	"analytic":    "analytic",
	"mc-run":      "runner",
	"estimate":    "estimator", // root the benchmark opens around Prophet.Estimate
}

// layers lists every layer that reports a self time, in output order.
var layers = []string{
	"xmi", "checker", "cppgen", "gogen", "interp", "lower", "sim",
	"estimator", "trace", "analytic", "runner", "server",
}

// attribute charges the self time of every span in the tree rooted at n
// to its layer, in milliseconds, adding into acc. Spans without a known
// layer (the benchmark's own op root) are charged to "unattributed".
//
// Children that overlap in time — parallel runner jobs — split each
// instant they share equally, so the charged self times of a tree always
// add up to the root's duration: layer times stay comparable to
// end-to-end latency however many workers ran.
func attribute(n *obs.SpanNode, acc map[string]float64) {
	attributeScaled(n, 1, acc)
}

func attributeScaled(n *obs.SpanNode, scale float64, acc map[string]float64) {
	layer, ok := spanLayer[n.Name]
	if !ok {
		layer = "unattributed"
	}
	shares, covered := wallShares(n)
	self := n.Seconds - covered
	if self < 0 {
		self = 0
	}
	acc[layer] += self * scale * 1e3
	for i, c := range n.Children {
		if c.Seconds > 0 {
			attributeScaled(c, scale*shares[i]/c.Seconds, acc)
		}
	}
}

// wallShares splits the part of n's interval its children cover among
// them: every instant goes in equal parts to the children running then.
// It returns each child's share in seconds and their total, the covered
// time.
func wallShares(n *obs.SpanNode) (shares []float64, covered float64) {
	type edge struct {
		at    time.Time
		child int
		open  bool
	}
	lo, hi := n.Start, n.Start.Add(seconds(n.Seconds))
	edges := make([]edge, 0, 2*len(n.Children))
	for i, c := range n.Children {
		a, b := c.Start, c.Start.Add(seconds(c.Seconds))
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			edges = append(edges, edge{a, i, true}, edge{b, i, false})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	shares = make([]float64, len(n.Children))
	active := map[int]bool{}
	var prev time.Time
	for _, e := range edges {
		if len(active) > 0 {
			seg := e.at.Sub(prev).Seconds()
			covered += seg
			for c := range active {
				shares[c] += seg / float64(len(active))
			}
		}
		if e.open {
			active[e.child] = true
		} else {
			delete(active, e.child)
		}
		prev = e.at
	}
	return shares, covered
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// walk calls fn on every span of the tree rooted at n.
func walk(n *obs.SpanNode, fn func(*obs.SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		walk(c, fn)
	}
}
