// Package dot renders performance models as Graphviz DOT documents. It is
// a second ContentHandler implementation behind the Figure 6 traversal
// machinery, demonstrating the paper's extension claim ("the extension of
// Performance Prophet for the generation of a specific model
// representation involves only a specific implementation of the
// ContentHandler interface") and standing in for Teuta's drawing space as
// the way to *see* a model.
//
// Each diagram becomes a cluster; node shapes follow the UML activity
// diagram notation (diamond decisions, bars for fork/join, a dot for the
// initial node, a double circle for finals), and stereotyped elements show
// their guillemet notation.
package dot

import (
	"fmt"
	"strings"

	"prophet/internal/traverse"
	"prophet/internal/uml"
)

// Handler builds the DOT text during a traversal.
type Handler struct {
	sb      strings.Builder
	started bool
	done    bool
}

// NewHandler returns a fresh DOT ContentHandler.
func NewHandler() *Handler { return &Handler{} }

// Visit implements traverse.ContentHandler.
func (h *Handler) Visit(ev traverse.Event) error {
	switch ev.Phase {
	case traverse.EnterModel:
		h.sb.Reset()
		h.done = false
		h.started = true
		fmt.Fprintf(&h.sb, "digraph %q {\n", ev.Element.Name())
		h.sb.WriteString("  rankdir=TB;\n  fontname=\"Helvetica\";\n  node [fontname=\"Helvetica\"];\n")
	case traverse.EnterDiagram:
		d := ev.Element.(*uml.Diagram)
		fmt.Fprintf(&h.sb, "  subgraph \"cluster_%s\" {\n    label=%q;\n", d.ID(), d.Name())
	case traverse.VisitNode:
		n := ev.Element.(uml.Node)
		fmt.Fprintf(&h.sb, "    %q [%s];\n", n.ID(), nodeAttrs(n))
	case traverse.VisitEdge:
		e := ev.Element.(*uml.Edge)
		attrs := ""
		if e.Guard() != "" {
			attrs = fmt.Sprintf(" [label=%q]", "["+e.Guard()+"]")
		}
		fmt.Fprintf(&h.sb, "    %q -> %q%s;\n", e.From(), e.To(), attrs)
	case traverse.LeaveDiagram:
		h.sb.WriteString("  }\n")
	case traverse.LeaveModel:
		h.sb.WriteString("}\n")
		h.done = true
	}
	return nil
}

// Output returns the DOT text and whether the traversal completed.
func (h *Handler) Output() (string, bool) { return h.sb.String(), h.done }

// nodeAttrs picks shape and label per node kind.
func nodeAttrs(n uml.Node) string {
	label := n.Name()
	if s := n.Stereotype(); s != "" {
		label = fmt.Sprintf("%s\\n«%s»", n.Name(), s)
	}
	switch n.Kind() {
	case uml.KindInitial:
		return `shape=circle, style=filled, fillcolor=black, label="", width=0.15, fixedsize=true`
	case uml.KindFinal:
		return `shape=doublecircle, style=filled, fillcolor=black, label="", width=0.12, fixedsize=true`
	case uml.KindDecision, uml.KindMerge:
		return fmt.Sprintf(`shape=diamond, label="", tooltip=%q`, n.Kind().String())
	case uml.KindFork, uml.KindJoin:
		return `shape=box, style=filled, fillcolor=black, label="", height=0.06, width=1.2, fixedsize=true`
	case uml.KindActivity:
		a := n.(*uml.ActivityNode)
		return fmt.Sprintf("shape=box, style=rounded, peripheries=2, label=%q, tooltip=%q",
			label, "content: "+a.Body())
	case uml.KindLoop:
		l := n.(*uml.LoopNode)
		return fmt.Sprintf("shape=box3d, label=%q", fmt.Sprintf("%s\\n[%s = 1,%s]", label, l.Var(), l.Count()))
	default: // action
		extra := ""
		if a, ok := n.(*uml.ActionNode); ok && a.CostFunc() != "" {
			extra = "\\nT = " + a.CostFunc()
		}
		return fmt.Sprintf("shape=box, style=rounded, label=%q", label+extra)
	}
}

// Render produces the DOT text for a model in one call.
func Render(m *uml.Model) (string, error) {
	h := NewHandler()
	if err := traverse.Run(m, h); err != nil {
		return "", err
	}
	out, done := h.Output()
	if !done {
		return "", fmt.Errorf("dot: traversal did not complete")
	}
	return out, nil
}
