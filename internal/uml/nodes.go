package uml

// Node is a node of an activity diagram. Every node belongs to exactly one
// diagram.
type Node interface {
	Element
	// Diagram returns the diagram that owns the node.
	Diagram() *Diagram
	setDiagram(*Diagram)
}

// nodeBase implements the Node bookkeeping shared by all node types.
type nodeBase struct {
	base
	diagram *Diagram
}

func (n *nodeBase) Diagram() *Diagram { return n.diagram }

func (n *nodeBase) setDiagram(d *Diagram) {
	n.diagram = d
	n.model = d.model
}

// Owner returns the diagram that holds the node.
func (n *nodeBase) Owner() Element {
	if n.diagram == nil {
		return nil
	}
	return n.diagram
}

// ActionNode models a single-entry single-exit code region (paper,
// Section 2.1: "We are using <<action+>> to model various types of
// single-entry single-exit code regions"). An action is not further
// decomposed into other elements.
type ActionNode struct {
	nodeBase
	code, costFunc string
}

// Code is the code fragment associated with the element (paper, Figure
// 7b). It is inlined verbatim into the generated C++ before the element's
// execute() call.
func (n *ActionNode) Code() string { return n.code }

// SetCode sets the associated code fragment.
func (n *ActionNode) SetCode(s string) {
	n.code = s
	n.model.changed()
}

// CostFunc is the cost-function call expression associated with the
// element (paper, Figure 7c), e.g. "FA1()" or "FSA2(pid)". It models the
// execution time of the represented code block.
func (n *ActionNode) CostFunc() string { return n.costFunc }

// SetCostFunc sets the cost-function expression.
func (n *ActionNode) SetCostFunc(s string) {
	n.costFunc = s
	n.model.changed()
}

// ActivityNode models a composite code region: while an action is not
// further decomposed, an activity contains a set of elements described by a
// separate activity diagram (paper, Section 4, activity SA).
type ActivityNode struct {
	nodeBase
	body, code, costFunc string
}

// Body is the name of the diagram that describes the activity content.
func (n *ActivityNode) Body() string { return n.body }

// SetBody sets the name of the content diagram.
func (n *ActivityNode) SetBody(s string) {
	n.body = s
	n.model.changed()
}

// Code and CostFunc play the same role as on ActionNode: an activity may
// carry its own associated fragment or aggregate cost function.
func (n *ActivityNode) Code() string { return n.code }

// SetCode sets the associated code fragment.
func (n *ActivityNode) SetCode(s string) {
	n.code = s
	n.model.changed()
}

// CostFunc is the activity's own aggregate cost-function expression.
func (n *ActivityNode) CostFunc() string { return n.costFunc }

// SetCostFunc sets the aggregate cost-function expression.
func (n *ActivityNode) SetCostFunc(s string) {
	n.costFunc = s
	n.model.changed()
}

// ControlNode is a pure routing node: initial, final, decision, merge, fork
// or join. Its Kind discriminates the variant.
type ControlNode struct {
	nodeBase
}

// LoopNode models a counted repetition of a body diagram. It corresponds to
// the loop annotations of the paper's Figure 3b ([L = 1,M] etc.): the body
// is executed Count times.
type LoopNode struct {
	nodeBase
	count, body, loopVar string
}

// Count is the iteration-count expression, e.g. "M" or "N-1", evaluated
// in the model environment.
func (n *LoopNode) Count() string { return n.count }

// SetCount sets the iteration-count expression.
func (n *LoopNode) SetCount(s string) {
	n.count = s
	n.model.changed()
}

// Body is the name of the diagram holding the loop body.
func (n *LoopNode) Body() string { return n.body }

// SetBody sets the name of the body diagram.
func (n *LoopNode) SetBody(s string) {
	n.body = s
	n.model.changed()
}

// Var is the optional loop variable name made visible to the body.
func (n *LoopNode) Var() string { return n.loopVar }

// SetVar sets the loop variable name.
func (n *LoopNode) SetVar(s string) {
	n.loopVar = s
	n.model.changed()
}

// Edge is a control flow between two nodes of the same diagram.
type Edge struct {
	base
	from, to string // node IDs
	guard    string
	weight   float64
	diagram  *Diagram
}

// From returns the source node ID.
func (e *Edge) From() string { return e.from }

// To returns the target node ID.
func (e *Edge) To() string { return e.to }

// Diagram returns the diagram that owns the edge.
func (e *Edge) Diagram() *Diagram { return e.diagram }

// Owner returns the diagram that holds the edge.
func (e *Edge) Owner() Element { return e.diagram }

// Guard is an optional boolean expression; the distinguished guard "else"
// marks the default branch out of a decision node (mapped to the trailing
// `else` of the generated if/else-if chain, paper Figure 8b).
func (e *Edge) Guard() string { return e.guard }

// SetGuard sets the guard expression.
func (e *Edge) SetGuard(s string) {
	e.guard = s
	e.model.changed()
}

// Weight optionally biases probabilistic branch selection when the model
// is evaluated without concrete variable values.
func (e *Edge) Weight() float64 { return e.weight }

// SetWeight sets the branch weight.
func (e *Edge) SetWeight(w float64) {
	e.weight = w
	e.model.changed()
}

// IsElse reports whether the edge carries the distinguished "else" guard.
func (e *Edge) IsElse() bool { return e.guard == "else" }
