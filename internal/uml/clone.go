package uml

// Clone returns a deep copy of the model. The copy shares no mutable state
// with the original: diagrams, nodes, edges, tags and constraints are all
// duplicated. Element IDs are preserved, so cross-references (activity
// bodies, edge endpoints) remain valid in the copy.
func Clone(m *Model) *Model {
	out := NewModel(m.Name())
	out.stereotype = m.stereotype
	cloneBaseInto(&out.base, &m.base)
	out.seq = m.seq
	for _, v := range m.variables {
		if err := out.AddVariable(v); err != nil {
			panic("uml: Clone: " + err.Error())
		}
	}
	for _, f := range m.functions {
		f.Params = append([]Param(nil), f.Params...)
		if err := out.AddFunction(f); err != nil {
			panic("uml: Clone: " + err.Error())
		}
	}
	for _, d := range m.diagrams {
		nd, err := out.AddDiagram(d.Name())
		if err != nil {
			// Diagram names are unique in the source model by construction.
			panic("uml: Clone: " + err.Error())
		}
		cloneBaseInto(&nd.base, &d.base)
		for _, n := range d.Nodes() {
			var cp Node
			switch src := n.(type) {
			case *ActionNode:
				cp = &ActionNode{
					nodeBase: nodeBase{base: newBase(src.ID(), src.Name(), src.Kind())},
					code:     src.code,
					costFunc: src.costFunc,
				}
			case *ActivityNode:
				cp = &ActivityNode{
					nodeBase: nodeBase{base: newBase(src.ID(), src.Name(), src.Kind())},
					body:     src.body,
					code:     src.code,
					costFunc: src.costFunc,
				}
			case *LoopNode:
				cp = &LoopNode{
					nodeBase: nodeBase{base: newBase(src.ID(), src.Name(), src.Kind())},
					count:    src.count,
					body:     src.body,
					loopVar:  src.loopVar,
				}
			case *ControlNode:
				cp = &ControlNode{nodeBase: nodeBase{base: newBase(src.ID(), src.Name(), src.Kind())}}
			default:
				panic("uml: Clone: unknown node type")
			}
			copyAnnotations(cp, n)
			if err := nd.addNode(cp); err != nil {
				panic("uml: Clone: " + err.Error())
			}
		}
		for _, e := range d.Edges() {
			ne, err := nd.Connect(e.from, e.to, e.guard)
			if err != nil {
				panic("uml: Clone: " + err.Error())
			}
			ne.weight = e.weight
			copyAnnotations(ne, e)
		}
	}
	out.main = m.main
	return out
}

// cloneBaseInto copies annotations (tags, constraints, stereotype) from one
// base to another, preserving the destination's identity fields.
func cloneBaseInto(dst, src *base) {
	dst.stereotype = src.stereotype
	if src.tags != nil {
		dst.tags = make(map[string]string, len(src.tags))
		for k, v := range src.tags {
			dst.tags[k] = v
		}
	}
	dst.constraints = append([]string(nil), src.constraints...)
}

// copyAnnotations copies stereotype, tags and constraints between elements.
func copyAnnotations(dst, src Element) {
	dst.SetStereotype(src.Stereotype())
	for _, tv := range src.Tags() {
		dst.SetTag(tv.Name, tv.Value)
	}
	for _, c := range src.Constraints() {
		dst.AddConstraint(c)
	}
}
