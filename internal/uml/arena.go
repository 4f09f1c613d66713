package uml

// SizeHint tells a model how many elements of each kind it is about to
// receive so containers can be sized once and nodes handed out from
// contiguous slabs instead of individual heap allocations. Decoding a
// 100k-node XMI document without a hint performs one allocation per node
// plus repeated map and slice growth; with a hint the element table, the
// diagram list, and the per-kind slabs are allocated exactly once.
type SizeHint struct {
	Diagrams   int
	Actions    int
	Activities int
	Loops      int
	Controls   int
	Edges      int
	Variables  int
	Functions  int
}

// nodes returns the total node count implied by the hint.
func (h SizeHint) nodes() int {
	return h.Actions + h.Activities + h.Loops + h.Controls
}

// arena hands out elements from fixed-capacity slabs. Each alloc extends a
// slab only while len < cap — an append within capacity never moves the
// backing array, so previously returned pointers stay valid — and falls
// back to individual allocation once a slab is exhausted. A nil arena is
// valid and always falls back.
type arena struct {
	actions    []ActionNode
	activities []ActivityNode
	loops      []LoopNode
	controls   []ControlNode
	edges      []Edge
}

func (a *arena) action() *ActionNode {
	if a != nil && len(a.actions) < cap(a.actions) {
		a.actions = a.actions[:len(a.actions)+1]
		return &a.actions[len(a.actions)-1]
	}
	return &ActionNode{}
}

func (a *arena) activity() *ActivityNode {
	if a != nil && len(a.activities) < cap(a.activities) {
		a.activities = a.activities[:len(a.activities)+1]
		return &a.activities[len(a.activities)-1]
	}
	return &ActivityNode{}
}

func (a *arena) loop() *LoopNode {
	if a != nil && len(a.loops) < cap(a.loops) {
		a.loops = a.loops[:len(a.loops)+1]
		return &a.loops[len(a.loops)-1]
	}
	return &LoopNode{}
}

func (a *arena) control() *ControlNode {
	if a != nil && len(a.controls) < cap(a.controls) {
		a.controls = a.controls[:len(a.controls)+1]
		return &a.controls[len(a.controls)-1]
	}
	return &ControlNode{}
}

func (a *arena) edge() *Edge {
	if a != nil && len(a.edges) < cap(a.edges) {
		a.edges = a.edges[:len(a.edges)+1]
		return &a.edges[len(a.edges)-1]
	}
	return &Edge{}
}

// Preallocate prepares the model for the given element counts: per-kind
// node slabs, a pre-sized element table, and diagram-list capacity. It is
// cheap to call on a fresh model (existing elements are preserved) and
// undercounting is safe — exhausted slabs fall back to one-off allocation.
func (m *Model) Preallocate(h SizeHint) {
	m.arena = &arena{
		actions:    make([]ActionNode, 0, h.Actions),
		activities: make([]ActivityNode, 0, h.Activities),
		loops:      make([]LoopNode, 0, h.Loops),
		controls:   make([]ControlNode, 0, h.Controls),
		edges:      make([]Edge, 0, h.Edges),
	}
	total := 1 + h.Diagrams + h.nodes() + h.Edges
	if total > len(m.byID) {
		byID := make(map[string]Element, total)
		for k, v := range m.byID {
			byID[k] = v
		}
		m.byID = byID
	}
	if m.byName == nil {
		m.byName = make(map[string]*Diagram, h.Diagrams)
	}
	if m.vars == nil {
		m.vars = make(map[varKey]int, h.Variables)
		m.variables = make([]Variable, 0, h.Variables)
	}
	if m.funcs == nil {
		m.funcs = make(map[string]int, h.Functions)
		m.functions = make([]Function, 0, h.Functions)
	}
	if free := cap(m.diagrams) - len(m.diagrams); free < h.Diagrams {
		grown := make([]*Diagram, len(m.diagrams), len(m.diagrams)+h.Diagrams)
		copy(grown, m.diagrams)
		m.diagrams = grown
	}
}

// Reserve sizes the diagram's node and edge containers for the given
// counts, avoiding incremental map and slice growth while the diagram is
// populated. Like Preallocate, undercounting is safe.
func (d *Diagram) Reserve(nodes, edges int) {
	if nodes > 0 {
		if d.pos == nil {
			d.pos = make(map[string]int32, nodes)
		}
		if free := cap(d.nodes) - len(d.nodes); free < nodes {
			grown := make([]Node, len(d.nodes), len(d.nodes)+nodes)
			copy(grown, d.nodes)
			d.nodes = grown
		}
	}
	if edges > 0 {
		if free := cap(d.edges) - len(d.edges); free < edges {
			grown := make([]*Edge, len(d.edges), len(d.edges)+edges)
			copy(grown, d.edges)
			d.edges = grown
		}
	}
}
