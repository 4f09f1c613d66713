package uml

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Model is the root of the element tree: it owns the diagrams, the global
// and local variables, and the cost-function definitions of a performance
// model. A model together with its diagrams and modeling elements "forms a
// tree data structure" (paper, Section 3) which the Model Traverser walks.
type Model struct {
	base
	diagrams  []*Diagram
	variables []Variable
	functions []Function

	main   string // name of the main diagram, defaults to the first added
	byID   map[string]Element
	byName map[string]*Diagram // the first diagram of each name; Diagram.SetName keeps it exact
	vars   map[varKey]int      // index in variables
	funcs  map[string]int      // index in functions
	seq    int
	arena  *arena // slab allocator primed by Preallocate; nil falls back to new

	// memo holds the artifacts derived from the model (memo.go), nil
	// until first asked for and after every mutation.
	memo atomic.Pointer[memo]
}

type varKey struct {
	name  string
	scope VarScope
}

// NewModel creates an empty model with the given name.
func NewModel(name string) *Model {
	m := &Model{base: newBase("model", name, KindModel)}
	m.base.model = m
	m.byID = map[string]Element{"model": m}
	return m
}

// NewID allocates a fresh element ID of the form "e<N>", unique within the
// model.
func (m *Model) NewID() string {
	for {
		m.seq++
		id := "e" + strconv.Itoa(m.seq)
		if _, taken := m.byID[id]; !taken {
			return id
		}
	}
}

// AddDiagram creates and attaches a new, empty activity diagram. The first
// diagram added becomes the main diagram unless SetMain overrides it.
func (m *Model) AddDiagram(name string) (*Diagram, error) {
	if m.DiagramByName(name) != nil {
		return nil, fmt.Errorf("uml: duplicate diagram name %q", name)
	}
	id := "d" + strconv.Itoa(len(m.diagrams)+1)
	if _, taken := m.byID[id]; taken {
		id = m.NewID()
	}
	d := &Diagram{base: newBase(id, name, KindDiagram), idx: int32(len(m.diagrams))}
	d.model = m
	m.diagrams = append(m.diagrams, d)
	m.byID[id] = d
	if m.byName == nil {
		m.byName = make(map[string]*Diagram)
	}
	m.byName[name] = d
	if m.main == "" {
		m.main = name
	}
	m.changed()
	return d, nil
}

// Diagrams returns the model's diagrams in insertion order. The returned
// slice must not be modified.
func (m *Model) Diagrams() []*Diagram { return m.diagrams }

// DiagramByName returns the first diagram, in insertion order, with the
// given name, or nil.
func (m *Model) DiagramByName(name string) *Diagram { return m.byName[name] }

// renamed moves d in the name index from old to its current name.
func (m *Model) renamed(d *Diagram, old string) {
	if m.byName[old] == d {
		delete(m.byName, old)
		for _, o := range m.diagrams[d.idx+1:] { // a later namesake takes over
			if o.name == old {
				m.byName[old] = o
				break
			}
		}
	}
	if have, ok := m.byName[d.name]; !ok || have.idx > d.idx {
		m.byName[d.name] = d
	}
}

// SetMain designates the main diagram, i.e. the one whose flow the generated
// program body executes (paper, Figure 7a "main activity diagram").
func (m *Model) SetMain(name string) error {
	if m.DiagramByName(name) == nil {
		return fmt.Errorf("uml: no diagram named %q", name)
	}
	m.main = name
	m.changed()
	return nil
}

// Main returns the main diagram, or nil for an empty model.
func (m *Model) Main() *Diagram { return m.DiagramByName(m.main) }

// MainName returns the name of the main diagram.
func (m *Model) MainName() string { return m.main }

// Element returns the element with the given ID anywhere in the model tree,
// or nil.
func (m *Model) Element(id string) Element { return m.byID[id] }

// AddVariable declares a model variable. Redeclaring a name within the same
// scope is an error.
func (m *Model) AddVariable(v Variable) error {
	if v.Name == "" {
		return fmt.Errorf("uml: variable with empty name")
	}
	k := varKey{v.Name, v.Scope}
	if _, dup := m.vars[k]; dup {
		return fmt.Errorf("uml: duplicate %s variable %q", v.Scope, v.Name)
	}
	if v.Type == "" {
		v.Type = "double"
	}
	if m.vars == nil {
		m.vars = make(map[varKey]int)
	}
	m.vars[k] = len(m.variables)
	m.variables = append(m.variables, v)
	m.changed()
	return nil
}

// Variables returns every model variable in declaration order. The
// returned slice must not be modified.
func (m *Model) Variables() []Variable { return m.variables }

// VariablesIn returns the variables of one scope, in declaration order.
func (m *Model) VariablesIn(scope VarScope) []Variable {
	var out []Variable
	for _, v := range m.variables {
		if v.Scope == scope {
			out = append(out, v)
		}
	}
	return out
}

// Variable returns the variable with the given name (searching globals then
// locals) and whether it exists.
func (m *Model) Variable(name string) (Variable, bool) {
	for _, scope := range []VarScope{ScopeGlobal, ScopeLocal} {
		if i, ok := m.vars[varKey{name, scope}]; ok {
			return m.variables[i], true
		}
	}
	return Variable{}, false
}

// AddFunction attaches a cost-function definition to the model.
func (m *Model) AddFunction(f Function) error {
	if f.Name == "" {
		return fmt.Errorf("uml: function with empty name")
	}
	if _, dup := m.funcs[f.Name]; dup {
		return fmt.Errorf("uml: duplicate function %q", f.Name)
	}
	if m.funcs == nil {
		m.funcs = make(map[string]int)
	}
	m.funcs[f.Name] = len(m.functions)
	m.functions = append(m.functions, f)
	m.changed()
	return nil
}

// Functions returns every cost-function definition in declaration order.
// The returned slice must not be modified.
func (m *Model) Functions() []Function { return m.functions }

// Function returns the cost function with the given name and whether it
// exists.
func (m *Model) Function(name string) (Function, bool) {
	if i, ok := m.funcs[name]; ok {
		return m.functions[i], true
	}
	return Function{}, false
}

// node factory helpers ------------------------------------------------------

// AddAction creates an ActionNode in the diagram. An empty id asks the model
// to allocate one.
func (m *Model) AddAction(d *Diagram, id, name string) (*ActionNode, error) {
	if id == "" {
		id = m.NewID()
	}
	n := m.arena.action()
	n.nodeBase = nodeBase{base: newBase(id, name, KindAction)}
	if err := d.addNode(n); err != nil {
		return nil, err
	}
	return n, nil
}

// AddActivity creates an ActivityNode whose content is the diagram named
// body.
func (m *Model) AddActivity(d *Diagram, id, name, body string) (*ActivityNode, error) {
	if id == "" {
		id = m.NewID()
	}
	n := m.arena.activity()
	n.nodeBase = nodeBase{base: newBase(id, name, KindActivity)}
	n.body = body
	if err := d.addNode(n); err != nil {
		return nil, err
	}
	return n, nil
}

// AddControl creates a control node of the given kind (initial, final,
// decision, merge, fork or join).
func (m *Model) AddControl(d *Diagram, id string, kind Kind) (*ControlNode, error) {
	if !kind.IsControl() {
		return nil, fmt.Errorf("uml: %v is not a control-node kind", kind)
	}
	if id == "" {
		id = m.NewID()
	}
	n := m.arena.control()
	n.nodeBase = nodeBase{base: newBase(id, kind.String(), kind)}
	if err := d.addNode(n); err != nil {
		return nil, err
	}
	return n, nil
}

// AddLoop creates a LoopNode repeating the diagram named body count times.
func (m *Model) AddLoop(d *Diagram, id, name, count, body string) (*LoopNode, error) {
	if id == "" {
		id = m.NewID()
	}
	n := m.arena.loop()
	n.nodeBase = nodeBase{base: newBase(id, name, KindLoop)}
	n.count = count
	n.body = body
	if err := d.addNode(n); err != nil {
		return nil, err
	}
	return n, nil
}

// Stats summarizes the size of a model; it is used by benchmarks and the
// CLI's describe output.
type Stats struct {
	Diagrams  int
	Nodes     int
	Edges     int
	Actions   int
	Variables int
	Functions int
}

// Stats computes model size statistics.
func (m *Model) Stats() Stats {
	s := Stats{Diagrams: len(m.diagrams), Variables: len(m.variables), Functions: len(m.functions)}
	for _, d := range m.diagrams {
		s.Nodes += len(d.nodes)
		s.Edges += len(d.edges)
		for _, n := range d.nodes {
			if n.Kind() == KindAction {
				s.Actions++
			}
		}
	}
	return s
}
