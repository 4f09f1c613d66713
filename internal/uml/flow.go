package uml

import "sync"

// flowGraph is the flow graph of one diagram in dense form, derived once
// from its edges and shared by every reader. Position len(nodes) is a
// virtual exit.
type flowGraph struct {
	// succ[i] lists the positions the edges leaving position i enter, in
	// edge order, with exit standing for an ID the diagram has no node
	// for; a node without outgoing edges lists exit alone.
	succ [][]int32
	// ipdom[i] is the immediate post-dominator of position i (exit when
	// no node post-dominates it), or -1 when no path leads from i to the
	// exit.
	ipdom []int32
	// fromInitial is Reachable of the diagram's initial node, computed on
	// first use: the checker asks for it on every check.
	initialOnce sync.Once
	fromInitial []bool
}

// graph returns the diagram's flow graph from the model's memo, building
// it on first use.
func (d *Diagram) graph() *flowGraph {
	dm := d.memo()
	dm.flowOnce.Do(func() { dm.flow = buildFlow(d) })
	return dm.flow
}

// Convergence returns the node where the branches leaving n close: its
// immediate post-dominator, the first node that every path from n to the
// end of the flow passes through. It returns nil when that is only the end
// of the flow itself (some branch leaves through its own final node, or
// the branches never meet), and for a node the diagram does not hold.
// Every consumer of the flow closes its decisions and forks here.
func (d *Diagram) Convergence(n Node) Node {
	p, ok := d.pos[n.ID()]
	if !ok {
		return nil
	}
	q := d.graph().ipdom[p]
	if q < 0 || int(q) == len(d.nodes) {
		return nil
	}
	return d.nodes[q]
}

// Reachable reports, per position in Nodes(), whether the node there is
// reachable from n along the diagram's edges (n itself included). It
// returns nil for a node the diagram does not hold. The answer for the
// initial node is kept with the flow graph and shared: callers must not
// modify the slice.
func (d *Diagram) Reachable(n Node) []bool {
	p, ok := d.pos[n.ID()]
	if !ok {
		return nil
	}
	g := d.graph()
	if n != d.Initial() {
		return reach(g.succ, p)
	}
	g.initialOnce.Do(func() { g.fromInitial = reach(g.succ, p) })
	return g.fromInitial
}

// reach walks succ from position p.
func reach(succ [][]int32, p int32) []bool {
	seen := make([]bool, len(succ))
	seen[p] = true
	stack := append(make([]int32, 0, len(succ)), p) // each node is pushed once
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range succ[p] {
			if int(q) < len(seen) && !seen[q] { // the exit is no node
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	return seen
}

// buildFlow derives d's dense flow graph and its post-dominator tree:
// dominators of the reversed graph rooted at the exit, by the iterative
// method of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance
// Algorithm", 2001) over a reverse postorder of that graph.
func buildFlow(d *Diagram) *flowGraph {
	n := len(d.nodes)
	exit := int32(n)
	g := &flowGraph{succ: make([][]int32, n)}
	flat := make([]int32, 0, len(d.edges)+n)
	preds := make([][]int32, n+1)
	for i := range d.nodes {
		start := len(flat)
		for _, e := range d.out[i] {
			q, ok := d.pos[e.to]
			if !ok {
				q = exit
			}
			flat = append(flat, q)
		}
		if len(flat) == start {
			flat = append(flat, exit)
		}
		g.succ[i] = flat[start:len(flat):len(flat)]
		for _, q := range g.succ[i] {
			preds[q] = append(preds[q], int32(i))
		}
	}

	// Postorder of a depth-first walk from the exit against the edges:
	// order lists the nodes as they finish, num[v] is v's index in order,
	// -2 while v is on the stack and -1 when the walk never reaches it
	// (v cannot reach the exit).
	num := make([]int32, n+1)
	ipdom := make([]int32, n+1)
	for i := range num {
		num[i], ipdom[i] = -1, -1
	}
	order := make([]int32, 0, n+1)
	type frame struct{ v, next int32 }
	num[exit] = -2
	for stack := []frame{{v: exit}}; len(stack) > 0; {
		top := &stack[len(stack)-1]
		if ps := preds[top.v]; int(top.next) < len(ps) {
			u := ps[top.next]
			top.next++
			if num[u] == -1 {
				num[u] = -2
				stack = append(stack, frame{v: u})
			}
			continue
		}
		num[top.v] = int32(len(order))
		order = append(order, top.v)
		stack = stack[:len(stack)-1]
	}

	ipdom[exit] = exit
	intersect := func(a, b int32) int32 {
		for a != b {
			for num[a] < num[b] {
				a = ipdom[a]
			}
			for num[b] < num[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for k := len(order) - 2; k >= 0; k-- { // reverse postorder, exit (last) skipped
			v, next := order[k], int32(-1)
			for _, s := range g.succ[v] {
				switch {
				case ipdom[s] < 0:
				case next < 0:
					next = s
				default:
					next = intersect(s, next)
				}
			}
			if ipdom[v] != next {
				ipdom[v], changed = next, true
			}
		}
	}
	g.ipdom = ipdom[:n]
	return g
}
