package uml

import "fmt"

// RegionKind discriminates the nodes of a structured-flow region tree.
type RegionKind uint8

const (
	// RegionSeq runs its Items in order.
	RegionSeq RegionKind = iota
	// RegionGuarded is a decision over guarded arms, in model order, with
	// the else arm (if any) last.
	RegionGuarded
	// RegionWeighted is a probabilistic decision; arms are in model order.
	RegionWeighted
	// RegionFork runs its arms in parallel up to their join.
	RegionFork
	// RegionLeaf is one action, activity or loop node. An activity's or
	// loop's body is a separate diagram, found by name.
	RegionLeaf
	// RegionErr is a structural defect, placed where the walk met it.
	RegionErr
)

// FlowError is a structural defect of one diagram's flow graph. Its text
// names the diagram, not the consumer that reports it.
type FlowError struct {
	msg string
	// Cycle marks an unstructured cycle: the flow reaches a node already
	// on its own path, which structured output cannot express.
	Cycle bool
}

func (e *FlowError) Error() string { return e.msg }

// Region is one node of a diagram's structured-flow tree: the control flow
// reconstructed from raw edges as nested sequences, decisions and forks,
// each closed at the node where its branches converge
// (Diagram.Convergence). A consumer that emits structured code folds
// the tree in order; the first Err region it meets is the first defect a
// walk of the flow runs into, after everything the walk would have visited
// before it.
type Region struct {
	Kind RegionKind
	// Node is the element of a Leaf and the control node of a decision or
	// fork.
	Node  Node
	Items []Region // Seq
	Arms  []Arm    // Guarded, Weighted, Fork
	Err   *FlowError
}

// Arm is one branch of a decision or fork: the edge taken and the region
// it runs up to the convergence point.
type Arm struct {
	Edge *Edge
	Body Region
}

// Regions returns the region tree of d, from its initial node to its
// final node(s), built once per state of the model and shared: callers
// must not modify it. A diagram without nodes yields an empty sequence.
func (d *Diagram) Regions() Region {
	dm := d.memo()
	dm.regionOnce.Do(func() { dm.regions = d.buildRegions() })
	return dm.regions
}

// buildRegions builds the region tree of d.
func (d *Diagram) buildRegions() Region {
	root := Region{Kind: RegionSeq}
	ini := d.Initial()
	if ini == nil {
		if len(d.nodes) > 0 {
			root.fail(&FlowError{msg: fmt.Sprintf("diagram %q has no initial node", d.Name())})
		}
		return root
	}
	b := regionBuilder{d: d, onPath: make([]bool, len(d.nodes))}
	start, err := b.successor(ini)
	if err != nil {
		root.fail(err)
		return root
	}
	b.seq(&root, start, nil)
	return root
}

func (r *Region) fail(err *FlowError) { r.Items = append(r.Items, Region{Kind: RegionErr, Err: err}) }

// regionBuilder carries one diagram's walk. onPath marks the dense
// positions of the nodes on the current path; marked lists them in order,
// so a branch undoes its own marks when it returns and the same node may
// appear on several alternative branches.
type regionBuilder struct {
	d      *Diagram
	onPath []bool
	marked []int32
}

func (b *regionBuilder) errorf(format string, args ...interface{}) *FlowError {
	return &FlowError{msg: fmt.Sprintf("diagram %q: %s", b.d.Name(), fmt.Sprintf(format, args...))}
}

// seq appends to r the regions from cur up to stop (exclusive), a final
// node or the first defect.
func (b *regionBuilder) seq(r *Region, cur, stop Node) {
	for cur != nil && cur != stop {
		p := b.d.pos[cur.ID()]
		if b.onPath[p] {
			err := b.errorf("unstructured cycle through node %q", cur.Name())
			err.Cycle = true
			r.fail(err)
			return
		}
		b.onPath[p] = true
		b.marked = append(b.marked, p)

		var next Node
		var err *FlowError
		switch n := cur.(type) {
		case *ControlNode:
			switch n.Kind() {
			case KindFinal:
				return
			case KindMerge, KindJoin:
				next, err = b.successor(n)
			case KindDecision, KindFork:
				next, err = b.split(r, n)
			default:
				err = b.errorf("unexpected %v mid-flow", n.Kind())
			}
		case *ActionNode, *ActivityNode, *LoopNode:
			r.Items = append(r.Items, Region{Kind: RegionLeaf, Node: cur})
			next, err = b.successor(cur)
		default:
			err = &FlowError{msg: fmt.Sprintf("unknown node type %T", cur)}
		}
		if err != nil {
			r.fail(err)
			return
		}
		cur = next
	}
}

// successor returns the unique next node, or nil at the end of the flow.
func (b *regionBuilder) successor(n Node) (Node, *FlowError) {
	out := b.d.Outgoing(n.ID())
	switch len(out) {
	case 0:
		return nil, nil
	case 1:
		if next := b.d.Node(out[0].To()); next != nil {
			return next, nil
		}
		return nil, b.errorf("dangling edge from %q", n.Name())
	}
	return nil, b.errorf("%v %q has %d successors", n.Kind(), n.Name(), len(out))
}

// split appends to parent the region of a decision or fork and returns the
// node the flow continues from. A decision whose branches form neither one
// if/else chain nor one weighted draw, or a fork or decision with fewer
// than two branches, yields only the error. A fork whose branches meet at
// a join continues after the join.
func (b *regionBuilder) split(parent *Region, n *ControlNode) (Node, *FlowError) {
	out := b.d.Outgoing(n.ID())
	r := Region{Kind: RegionFork, Node: n}
	what, branch := "fork", "fork"
	if n.Kind() == KindDecision {
		r.Kind, what, branch = RegionGuarded, "decision", "branch"
		if len(out) > 0 && out[0].guard == "" && out[0].weight > 0 {
			r.Kind = RegionWeighted
		}
	}
	if len(out) < 2 {
		return nil, b.errorf("%s %q has %d branch(es)", what, n.Name(), len(out))
	}
	// With at least two branches and at most one else, some branch is
	// guarded: a decision with only an else branch cannot get this far.
	var elseEdge *Edge
	for _, e := range out {
		switch {
		case r.Kind == RegionWeighted:
			if e.guard != "" || e.weight <= 0 {
				return nil, b.errorf("decision %q mixes weighted and guarded branches", n.Name())
			}
		case r.Kind == RegionFork:
		case e.IsElse():
			if elseEdge != nil {
				return nil, b.errorf("decision %q has two else branches", n.Name())
			}
			elseEdge = e
		case e.guard == "":
			return nil, b.errorf("unguarded branch out of decision %q", n.Name())
		}
	}

	conv := b.d.Convergence(n)
	r.Arms = make([]Arm, 0, len(out))
	for _, e := range out {
		if e != elseEdge {
			r.Arms = append(r.Arms, b.arm(e, conv, branch))
		}
	}
	if elseEdge != nil {
		r.Arms = append(r.Arms, b.arm(elseEdge, conv, branch))
	}
	parent.Items = append(parent.Items, r)
	if r.Kind == RegionFork && conv != nil && conv.Kind() == KindJoin {
		return b.successor(conv)
	}
	return conv, nil
}

// arm builds one branch up to stop, then clears the path marks the branch
// set.
func (b *regionBuilder) arm(e *Edge, stop Node, branch string) Arm {
	a := Arm{Edge: e, Body: Region{Kind: RegionSeq}}
	head := b.d.Node(e.To())
	if head == nil {
		a.Body.fail(b.errorf("dangling %s edge", branch))
		return a
	}
	mark := len(b.marked)
	b.seq(&a.Body, head, stop)
	for _, p := range b.marked[mark:] {
		b.onPath[p] = false
	}
	b.marked = b.marked[:mark]
	return a
}
