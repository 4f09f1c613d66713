package uml

// FlowIndex is a dense integer view of one diagram's flow graph, built
// once and then queried repeatedly. Convergence search from every decision
// and fork of a diagram is quadratic in the diagram when each query
// re-walks string-keyed adjacency maps; an index makes each query pure
// integer BFS. The index is a snapshot: mutating the diagram after
// building it leaves the index describing the old shape, so build it after
// the diagram is complete (the region tree, the lowerer and the analytic
// solver index each diagram they walk).
type FlowIndex struct {
	idx map[string]int32
	// nodes[i] is the node at dense position i; positions past the
	// diagram's real nodes are "virtual" targets of dangling edges (nil
	// node), kept so convergence semantics match the string-keyed search
	// exactly.
	nodes []Node
	adj   [][]int32

	// scratch reused across queries; a FlowIndex is therefore NOT safe for
	// concurrent queries. seen holds the visit id of the last head BFS
	// that reached a position, hits counts distinct heads of the current
	// query that reached it.
	seen    []int64
	hits    []int32
	queue   []int32
	counter int64
}

// NewFlowIndex builds the dense view of d's current nodes and edges.
func NewFlowIndex(d *Diagram) *FlowIndex {
	nodes := d.Nodes()
	ix := &FlowIndex{
		idx:   make(map[string]int32, len(nodes)),
		nodes: make([]Node, len(nodes), len(nodes)+4),
	}
	for i, n := range nodes {
		ix.nodes[i] = n
		ix.idx[n.ID()] = int32(i)
	}
	ix.adj = make([][]int32, len(nodes), cap(ix.nodes))
	for _, e := range d.Edges() {
		fi, ok := ix.idx[e.From()]
		if !ok {
			// Edge from a node the diagram does not contain: unreachable
			// through any flow walk, matching d.Outgoing of real nodes.
			continue
		}
		ix.adj[fi] = append(ix.adj[fi], ix.pos(e.To()))
	}
	ix.seen = make([]int64, len(ix.nodes), cap(ix.nodes))
	ix.hits = make([]int32, len(ix.nodes), cap(ix.nodes))
	return ix
}

// pos returns the dense position for id, creating a virtual position for
// ids the diagram has no node for.
func (ix *FlowIndex) pos(id string) int32 {
	if i, ok := ix.idx[id]; ok {
		return i
	}
	i := int32(len(ix.nodes))
	ix.idx[id] = i
	ix.nodes = append(ix.nodes, nil)
	ix.adj = append(ix.adj, nil)
	ix.seen = append(ix.seen, 0)
	ix.hits = append(ix.hits, 0)
	return i
}

// Convergence finds the node where the forward paths from heads meet
// again: the first node, in breadth-first order from the first head, that
// is reachable from every head. Identical to the package-level Convergence
// but without per-query map traffic.
func (ix *FlowIndex) Convergence(heads []string) Node {
	if len(heads) == 0 {
		return nil
	}
	// Resolve heads first: each may create a virtual position, and the
	// scratch slices must not grow mid-search.
	hp := make([]int32, len(heads))
	for i, h := range heads {
		hp[i] = ix.pos(h)
	}
	// base separates this query from everything earlier: seen[p] >= base
	// means an earlier head of THIS query reached p; seen[p] == vid means
	// the current head already did.
	base := ix.counter + 1
	var order []int32
	for i, h := range hp {
		ix.counter++
		vid := ix.counter
		ix.queue = append(ix.queue[:0], h)
		for len(ix.queue) > 0 {
			p := ix.queue[0]
			ix.queue = ix.queue[1:]
			if ix.seen[p] == vid {
				continue
			}
			if ix.seen[p] >= base {
				ix.hits[p]++
			} else {
				ix.hits[p] = 1
			}
			ix.seen[p] = vid
			if i == 0 {
				order = append(order, p)
			}
			ix.queue = append(ix.queue, ix.adj[p]...)
		}
	}
	want := int32(len(hp))
	for _, p := range order {
		if ix.hits[p] == want {
			// A virtual position common to all heads returns nil, exactly
			// as the string-keyed search's d.Node(id) does.
			return ix.nodes[p]
		}
	}
	return nil
}
