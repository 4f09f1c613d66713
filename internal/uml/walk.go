package uml

// Walk performs a depth-first visit of the whole element tree: the model,
// then each diagram, then each node and each edge of the diagram, in
// insertion order. It stops early and returns the callback's error if the
// callback returns a non-nil error.
//
// Walk is a convenience for simple consumers; the transformation pipeline
// uses the richer Traverser/Navigator/ContentHandler machinery of package
// traverse, which follows the paper's Figure 6.
func Walk(m *Model, visit func(Element) error) error {
	if err := visit(m); err != nil {
		return err
	}
	for _, d := range m.Diagrams() {
		if err := visit(d); err != nil {
			return err
		}
		for _, n := range d.Nodes() {
			if err := visit(n); err != nil {
				return err
			}
		}
		for _, e := range d.Edges() {
			if err := visit(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Actions returns every ActionNode in the model, across all diagrams, in
// walk order.
func Actions(m *Model) []*ActionNode {
	var out []*ActionNode
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			if a, ok := n.(*ActionNode); ok {
				out = append(out, a)
			}
		}
	}
	return out
}

// Activities returns every ActivityNode in the model, in walk order.
func Activities(m *Model) []*ActivityNode {
	var out []*ActivityNode
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			if a, ok := n.(*ActivityNode); ok {
				out = append(out, a)
			}
		}
	}
	return out
}

// ElementsWithStereotype returns every element in the model carrying the
// given stereotype, in walk order. This is the selection criterion of the
// transformation algorithm's first phase (paper, Figure 5 lines 1-8:
// "Performance relevant modeling elements of the UML model are identified
// based on the stereotype name").
func ElementsWithStereotype(m *Model, stereotype string) []Element {
	var out []Element
	_ = Walk(m, func(e Element) error {
		if e.Stereotype() == stereotype {
			out = append(out, e)
		}
		return nil
	})
	return out
}
