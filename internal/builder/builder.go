// Package builder provides a fluent API for assembling UML performance
// models. It wraps the low-level constructors of internal/uml so that
// models read like the diagrams they describe:
//
//	b := builder.New("app")
//	b.Global("P", "double").Function("F", nil, "2*P")
//	d := b.Diagram("main")
//	d.Initial()
//	d.Action("Work").Cost("F()")
//	d.Final()
//	d.Chain("initial", "Work", "final")
//	m, err := b.Build()
//
// Nodes are referenced by name, not ID: flow statements may mention nodes
// that have not been created yet, because edges are resolved when Build is
// called. The builder applies the standard performance-profile stereotypes
// automatically (<<action+>> to actions, <<activity+>> to activities,
// <<loop+>> to loops), filling in the profile's tag defaults.
//
// The builder records the first error it encounters (duplicate names,
// unresolved flow endpoints, ...) and reports it from Build; intermediate
// calls never fail, which keeps model definitions free of error plumbing.
package builder

import (
	"fmt"

	"prophet/internal/profile"
	"prophet/internal/uml"
)

// ModelBuilder accumulates the parts of a model: variables, cost
// functions and diagrams. Create one with New, populate it, then call
// Build (or MustBuild for test fixtures).
type ModelBuilder struct {
	model    *uml.Model
	reg      *profile.Registry
	diagrams []*DiagramBuilder
	errs     []error
}

// New starts a fresh model builder.
func New(name string) *ModelBuilder {
	return &ModelBuilder{
		model: uml.NewModel(name),
		reg:   profile.NewRegistry(),
	}
}

// MustBuild finalizes the model and panics on error. It is intended for
// sample models and tests where a build failure is a programming bug.
func MustBuild(b *ModelBuilder) *uml.Model {
	m, err := b.Build()
	if err != nil {
		panic("builder: " + err.Error())
	}
	return m
}

func (b *ModelBuilder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Global declares a global (shared) variable.
func (b *ModelBuilder) Global(name, typ string) *ModelBuilder {
	return b.GlobalInit(name, typ, "")
}

// GlobalInit declares a global variable with an initializer expression.
func (b *ModelBuilder) GlobalInit(name, typ, init string) *ModelBuilder {
	if err := b.model.AddVariable(uml.Variable{Name: name, Type: typ, Scope: uml.ScopeGlobal, Init: init}); err != nil {
		b.errs = append(b.errs, err)
	}
	return b
}

// Local declares a process-local variable.
func (b *ModelBuilder) Local(name, typ string) *ModelBuilder {
	return b.LocalInit(name, typ, "")
}

// LocalInit declares a process-local variable with an initializer.
func (b *ModelBuilder) LocalInit(name, typ, init string) *ModelBuilder {
	if err := b.model.AddVariable(uml.Variable{Name: name, Type: typ, Scope: uml.ScopeLocal, Init: init}); err != nil {
		b.errs = append(b.errs, err)
	}
	return b
}

// Function defines a cost function with the given parameter names and body
// expression (paper, Figure 8a).
func (b *ModelBuilder) Function(name string, params []string, body string) *ModelBuilder {
	f := uml.Function{Name: name, Body: body}
	for _, p := range params {
		f.Params = append(f.Params, uml.Param{Name: p, Type: "double"})
	}
	if err := b.model.AddFunction(f); err != nil {
		b.errs = append(b.errs, err)
	}
	return b
}

// SetMain designates the main diagram; by default the first diagram added
// is the main one.
func (b *ModelBuilder) SetMain(name string) *ModelBuilder {
	if err := b.model.SetMain(name); err != nil {
		b.errs = append(b.errs, err)
	}
	return b
}

// Diagram starts (or in error cases records) a new activity diagram and
// returns its builder.
func (b *ModelBuilder) Diagram(name string) *DiagramBuilder {
	d, err := b.model.AddDiagram(name)
	if err != nil {
		b.errs = append(b.errs, err)
	}
	db := &DiagramBuilder{b: b, d: d}
	b.diagrams = append(b.diagrams, db)
	return db
}

// Build resolves all deferred flows and returns the finished model. The
// model is returned even when an error occurred, so callers inspecting a
// partially built model still can; MustBuild enforces success.
func (b *ModelBuilder) Build() (*uml.Model, error) {
	for _, db := range b.diagrams {
		db.connect()
	}
	if len(b.errs) > 0 {
		return b.model, b.errs[0]
	}
	return b.model, nil
}

// pendingEdge is a flow recorded by name, resolved at Build time so that
// flows may reference nodes created later.
type pendingEdge struct {
	from, to string
	guard    string
	weight   float64
	weighted bool
}

// DiagramBuilder assembles one activity diagram.
type DiagramBuilder struct {
	b     *ModelBuilder
	d     *uml.Diagram // nil when the diagram itself failed to create
	edges []pendingEdge
	done  bool
}

// Name returns the diagram name, or "" for a failed diagram.
func (db *DiagramBuilder) Name() string {
	if db.d == nil {
		return ""
	}
	return db.d.Name()
}

func (db *DiagramBuilder) nodeBuilder(n uml.Node) *NodeBuilder {
	return &NodeBuilder{db: db, n: n}
}

// control adds a control node with an explicit user-visible name.
func (db *DiagramBuilder) control(name string, kind uml.Kind) *NodeBuilder {
	if db.d == nil {
		return db.nodeBuilder(nil)
	}
	n, err := db.b.model.AddControl(db.d, "", kind)
	if err != nil {
		db.b.errs = append(db.b.errs, err)
		return db.nodeBuilder(nil)
	}
	n.SetName(name)
	return db.nodeBuilder(n)
}

// Initial adds the diagram's initial node, named "initial" for flows.
func (db *DiagramBuilder) Initial() *NodeBuilder { return db.control("initial", uml.KindInitial) }

// Final adds a final node, named "final" for flows.
func (db *DiagramBuilder) Final() *NodeBuilder { return db.control("final", uml.KindFinal) }

// Decision adds a decision node with the given name.
func (db *DiagramBuilder) Decision(name string) *NodeBuilder {
	return db.control(name, uml.KindDecision)
}

// Merge adds a merge node with the given name.
func (db *DiagramBuilder) Merge(name string) *NodeBuilder { return db.control(name, uml.KindMerge) }

// Fork adds a fork node with the given name.
func (db *DiagramBuilder) Fork(name string) *NodeBuilder { return db.control(name, uml.KindFork) }

// Join adds a join node with the given name.
func (db *DiagramBuilder) Join(name string) *NodeBuilder { return db.control(name, uml.KindJoin) }

// Action adds an <<action+>>-stereotyped action node.
func (db *DiagramBuilder) Action(name string) *NodeBuilder {
	if db.d == nil {
		return db.nodeBuilder(nil)
	}
	n, err := db.b.model.AddAction(db.d, "", name)
	if err != nil {
		db.b.errs = append(db.b.errs, err)
		return db.nodeBuilder(nil)
	}
	db.apply(n, profile.ActionPlus)
	return db.nodeBuilder(n)
}

// Activity adds an <<activity+>>-stereotyped activity node whose content is
// the diagram named body.
func (db *DiagramBuilder) Activity(name, body string) *NodeBuilder {
	if db.d == nil {
		return db.nodeBuilder(nil)
	}
	n, err := db.b.model.AddActivity(db.d, "", name, body)
	if err != nil {
		db.b.errs = append(db.b.errs, err)
		return db.nodeBuilder(nil)
	}
	db.apply(n, profile.ActivityPlus)
	return db.nodeBuilder(n)
}

// Loop adds a <<loop+>>-stereotyped loop node repeating the diagram named
// body count times; count is an expression in the model environment.
func (db *DiagramBuilder) Loop(name, count, body string) *NodeBuilder {
	if db.d == nil {
		return db.nodeBuilder(nil)
	}
	n, err := db.b.model.AddLoop(db.d, "", name, count, body)
	if err != nil {
		db.b.errs = append(db.b.errs, err)
		return db.nodeBuilder(nil)
	}
	db.apply(n, profile.LoopPlus)
	return db.nodeBuilder(n)
}

// MPI adds an action node carrying one of the communication stereotypes
// (mpi_send, mpi_recv, omp_critical, ...); the profile's tag defaults are
// filled in.
func (db *DiagramBuilder) MPI(name, stereotype string) *NodeBuilder {
	if db.d == nil {
		return db.nodeBuilder(nil)
	}
	n, err := db.b.model.AddAction(db.d, "", name)
	if err != nil {
		db.b.errs = append(db.b.errs, err)
		return db.nodeBuilder(nil)
	}
	db.apply(n, stereotype)
	return db.nodeBuilder(n)
}

// apply stereotypes a node via the profile registry (filling defaults).
func (db *DiagramBuilder) apply(n uml.Node, stereotype string) {
	if err := db.b.reg.Apply(n, stereotype); err != nil {
		db.b.errs = append(db.b.errs, err)
	}
}

// Flow records an unconditional control flow between two nodes by name.
func (db *DiagramBuilder) Flow(from, to string) *DiagramBuilder {
	db.edges = append(db.edges, pendingEdge{from: from, to: to})
	return db
}

// FlowIf records a guarded control flow; the distinguished guard "else"
// marks the default branch out of a decision.
func (db *DiagramBuilder) FlowIf(from, to, guard string) *DiagramBuilder {
	db.edges = append(db.edges, pendingEdge{from: from, to: to, guard: guard})
	return db
}

// FlowWeighted records a probabilistically weighted flow out of a decision
// node, used when the model is evaluated stochastically.
func (db *DiagramBuilder) FlowWeighted(from, to string, weight float64) *DiagramBuilder {
	db.edges = append(db.edges, pendingEdge{from: from, to: to, weight: weight, weighted: true})
	return db
}

// Chain records unconditional flows between each consecutive pair of the
// named nodes.
func (db *DiagramBuilder) Chain(names ...string) *DiagramBuilder {
	for i := 0; i+1 < len(names); i++ {
		db.Flow(names[i], names[i+1])
	}
	return db
}

// connect resolves the diagram's deferred flows; called once by Build.
func (db *DiagramBuilder) connect() {
	if db.d == nil || db.done {
		return
	}
	db.done = true
	for _, pe := range db.edges {
		if pe.weighted && !(pe.weight > 0) {
			db.b.errf("builder: diagram %q: flow %s -> %s: weight must be positive, got %v",
				db.d.Name(), pe.from, pe.to, pe.weight)
			continue
		}
		from := db.d.NodeByName(pe.from)
		if from == nil {
			db.b.errf("builder: diagram %q: flow source %q not found", db.d.Name(), pe.from)
			continue
		}
		to := db.d.NodeByName(pe.to)
		if to == nil {
			db.b.errf("builder: diagram %q: flow target %q not found", db.d.Name(), pe.to)
			continue
		}
		e, err := db.d.Connect(from.ID(), to.ID(), pe.guard)
		if err != nil {
			db.b.errs = append(db.b.errs, err)
			continue
		}
		e.SetWeight(pe.weight)
	}
}

// NodeBuilder decorates one freshly created node. All methods are no-ops
// on a failed node so chained calls stay safe.
type NodeBuilder struct {
	db *DiagramBuilder
	n  uml.Node
}

// Node returns the underlying UML node (nil if creation failed), for
// direct manipulation beyond the builder surface.
func (nb *NodeBuilder) Node() uml.Node { return nb.n }

// Cost sets the node's cost-function call expression, e.g. "FA1()".
func (nb *NodeBuilder) Cost(expr string) *NodeBuilder {
	switch n := nb.n.(type) {
	case *uml.ActionNode:
		n.SetCostFunc(expr)
	case *uml.ActivityNode:
		n.SetCostFunc(expr)
	case nil:
	default:
		nb.db.b.errf("builder: node %q (%v) cannot carry a cost function", nb.n.Name(), nb.n.Kind())
	}
	return nb
}

// Code attaches a code fragment to the node (paper, Figure 7b).
func (nb *NodeBuilder) Code(src string) *NodeBuilder {
	switch n := nb.n.(type) {
	case *uml.ActionNode:
		n.SetCode(src)
	case *uml.ActivityNode:
		n.SetCode(src)
	case nil:
	default:
		nb.db.b.errf("builder: node %q (%v) cannot carry a code fragment", nb.n.Name(), nb.n.Kind())
	}
	return nb
}

// Tag sets a tagged value on the node.
func (nb *NodeBuilder) Tag(name, value string) *NodeBuilder {
	if nb.n != nil {
		nb.n.SetTag(name, value)
	}
	return nb
}

// Var sets the loop variable name on a loop node.
func (nb *NodeBuilder) Var(name string) *NodeBuilder {
	switch n := nb.n.(type) {
	case *uml.LoopNode:
		n.SetVar(name)
	case nil:
	default:
		nb.db.b.errf("builder: node %q (%v) is not a loop", nb.n.Name(), nb.n.Kind())
	}
	return nb
}
