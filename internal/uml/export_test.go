package uml

// Retarget points e at to, which the diagram need not contain: the
// dangling edges that Connect refuses to create. Like Connect, it drops
// the model's memo of derived artifacts.
func Retarget(e *Edge, to string) {
	e.to = to
	e.model.changed()
}

// BFSConvergence is the reference answer that Diagram.Convergence is
// tested against: the first node, in breadth-first order from the first
// head, that is reachable from every head, or nil when there is none.
// Where the two differ, a branch leaves through a final node (or jumps
// into a sibling) before the branches meet; see TestConvergenceMatchesBFS.
func BFSConvergence(d *Diagram, heads []string) Node {
	if len(heads) == 0 {
		return nil
	}
	reach := func(start string) ([]string, map[string]bool) {
		var order []string
		seen := map[string]bool{}
		queue := []string{start}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			if seen[id] {
				continue
			}
			seen[id] = true
			order = append(order, id)
			for _, e := range d.Outgoing(id) {
				queue = append(queue, e.To())
			}
		}
		return order, seen
	}
	firstOrder, _ := reach(heads[0])
	sets := make([]map[string]bool, 0, len(heads)-1)
	for _, h := range heads[1:] {
		_, s := reach(h)
		sets = append(sets, s)
	}
	for _, id := range firstOrder {
		common := true
		for _, s := range sets {
			if !s[id] {
				common = false
				break
			}
		}
		if common {
			return d.Node(id)
		}
	}
	return nil
}

// BranchHeads returns the targets of the edges leaving n, the heads that
// BFSConvergence takes.
func BranchHeads(d *Diagram, n Node) []string {
	out := d.Outgoing(n.ID())
	heads := make([]string, len(out))
	for i, e := range out {
		heads[i] = e.To()
	}
	return heads
}
