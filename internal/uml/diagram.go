package uml

import (
	"fmt"
	"strconv"
)

// Diagram is a UML activity diagram: an ordered collection of nodes and
// control-flow edges. The paper models a scientific program with one or
// more activity diagrams (Section 3); the content of an <<activity+>>
// element is itself described by a diagram (Section 4).
type Diagram struct {
	base
	idx   int32 // position in the model's diagrams
	nodes []Node
	edges []*Edge

	// pos maps a node ID to the node's dense position, its index in
	// nodes; out and in hold the edges leaving and entering each
	// position, in insertion order.
	pos map[string]int32
	out [][]*Edge
	in  [][]*Edge
}

// Model returns the owning model.
func (d *Diagram) Model() *Model { return d.model }

// Owner returns the owning model.
func (d *Diagram) Owner() Element { return d.model }

// SetName renames the diagram. Activities and loops that named it as
// their body keep the old name.
func (d *Diagram) SetName(name string) {
	old := d.name
	d.base.SetName(name)
	d.model.renamed(d, old)
}

// Nodes returns the diagram's nodes in insertion order. The returned slice
// must not be modified.
func (d *Diagram) Nodes() []Node { return d.nodes }

// Edges returns the diagram's edges in insertion order. The returned slice
// must not be modified.
func (d *Diagram) Edges() []*Edge { return d.edges }

// addNode wires a node into the diagram.
func (d *Diagram) addNode(n Node) error {
	id := n.ID()
	if id == "" {
		return fmt.Errorf("uml: node %q has empty ID", n.Name())
	}
	if _, dup := d.model.byID[id]; dup {
		return fmt.Errorf("uml: duplicate element ID %q", id)
	}
	d.model.byID[id] = n
	if d.pos == nil {
		d.pos = make(map[string]int32)
	}
	d.pos[id] = int32(len(d.nodes))
	d.nodes = append(d.nodes, n)
	d.out = append(d.out, nil)
	d.in = append(d.in, nil)
	n.setDiagram(d)
	d.model.changed()
	return nil
}

// Node returns the node with the given ID, or nil if the diagram has none.
func (d *Diagram) Node(id string) Node {
	if p, ok := d.pos[id]; ok {
		return d.nodes[p]
	}
	return nil
}

// NodeByName returns the first node with the given name, or nil.
func (d *Diagram) NodeByName(name string) Node {
	for _, n := range d.nodes {
		if n.Name() == name {
			return n
		}
	}
	return nil
}

// Connect adds a control-flow edge from one node to another, identified by
// ID. An empty guard means the edge is unconditional.
func (d *Diagram) Connect(fromID, toID, guard string) (*Edge, error) {
	from, ok := d.pos[fromID]
	if !ok {
		return nil, fmt.Errorf("uml: diagram %q: edge source %q not found", d.Name(), fromID)
	}
	to, ok := d.pos[toID]
	if !ok {
		return nil, fmt.Errorf("uml: diagram %q: edge target %q not found", d.Name(), toID)
	}
	id := d.ID() + ".e" + strconv.Itoa(len(d.edges)+1)
	e := d.model.arena.edge()
	e.base = newBase(id, "", KindEdge)
	e.model = d.model
	e.from = fromID
	e.to = toID
	e.guard = guard
	e.diagram = d
	d.edges = append(d.edges, e)
	d.out[from] = append(d.out[from], e)
	d.in[to] = append(d.in[to], e)
	d.model.byID[id] = e
	d.model.changed()
	return e, nil
}

// Outgoing returns the edges leaving the node with the given ID, in
// insertion order.
func (d *Diagram) Outgoing(nodeID string) []*Edge {
	if p, ok := d.pos[nodeID]; ok {
		return d.out[p]
	}
	return nil
}

// Incoming returns the edges entering the node with the given ID, in
// insertion order.
func (d *Diagram) Incoming(nodeID string) []*Edge {
	if p, ok := d.pos[nodeID]; ok {
		return d.in[p]
	}
	return nil
}

// Initial returns the diagram's initial node, or nil when absent.
func (d *Diagram) Initial() Node {
	for _, n := range d.nodes {
		if n.Kind() == KindInitial {
			return n
		}
	}
	return nil
}

// Finals returns every final node of the diagram.
func (d *Diagram) Finals() []Node {
	var out []Node
	for _, n := range d.nodes {
		if n.Kind() == KindFinal {
			out = append(out, n)
		}
	}
	return out
}
