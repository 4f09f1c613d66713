// Package mdgen renders a performance model as markdown documentation: a
// third ContentHandler implementation behind the Figure 6 traversal
// machinery (after C++ and DOT), generating the reference page a team
// would commit next to its model XML.
//
// The output lists the model's variables, cost functions, and per diagram
// the performance modeling elements with their stereotypes, cost
// functions and flows.
package mdgen

import (
	"fmt"
	"strings"

	"prophet/internal/traverse"
	"prophet/internal/uml"
)

// Handler accumulates the markdown during a traversal.
type Handler struct {
	sb      strings.Builder
	model   *uml.Model
	current *uml.Diagram
	// edges buffers the current diagram's edges so the flow list renders
	// after the node table closes.
	edges []*uml.Edge
	done  bool
}

// NewHandler returns a fresh markdown ContentHandler.
func NewHandler() *Handler { return &Handler{} }

// Visit implements traverse.ContentHandler.
func (h *Handler) Visit(ev traverse.Event) error {
	switch ev.Phase {
	case traverse.EnterModel:
		m, ok := ev.Element.(*uml.Model)
		if !ok {
			return fmt.Errorf("mdgen: EnterModel with %T", ev.Element)
		}
		h.sb.Reset()
		h.done = false
		h.model = m
		fmt.Fprintf(&h.sb, "# Performance model: %s\n\n", m.Name())
		if m.MainName() != "" {
			fmt.Fprintf(&h.sb, "Main diagram: **%s**\n\n", m.MainName())
		}
		h.emitVariables(m)
		h.emitFunctions(m)
	case traverse.EnterDiagram:
		d := ev.Element.(*uml.Diagram)
		h.current = d
		fmt.Fprintf(&h.sb, "## Diagram %s\n\n", d.Name())
		h.sb.WriteString("| element | kind | stereotype | details |\n")
		h.sb.WriteString("|---|---|---|---|\n")
	case traverse.VisitNode:
		h.emitNode(ev.Element.(uml.Node))
	case traverse.VisitEdge:
		// Buffered: emitting here would interleave with the node table.
		h.edges = append(h.edges, ev.Element.(*uml.Edge))
	case traverse.LeaveDiagram:
		h.emitEdges()
		h.current = nil
	case traverse.LeaveModel:
		h.done = true
	}
	return nil
}

func (h *Handler) emitVariables(m *uml.Model) {
	vars := m.Variables()
	if len(vars) == 0 {
		return
	}
	h.sb.WriteString("## Variables\n\n| name | type | scope | initializer |\n|---|---|---|---|\n")
	for _, v := range vars {
		init := v.Init
		if init == "" {
			init = "—"
		}
		fmt.Fprintf(&h.sb, "| %s | %s | %s | %s |\n", v.Name, v.Type, v.Scope, code(init))
	}
	h.sb.WriteString("\n")
}

func (h *Handler) emitFunctions(m *uml.Model) {
	funcs := m.Functions()
	if len(funcs) == 0 {
		return
	}
	h.sb.WriteString("## Cost functions\n\n| name | parameters | body |\n|---|---|---|\n")
	for _, f := range funcs {
		params := make([]string, len(f.Params))
		for i, p := range f.Params {
			params[i] = p.Type + " " + p.Name
		}
		ps := strings.Join(params, ", ")
		if ps == "" {
			ps = "—"
		}
		fmt.Fprintf(&h.sb, "| %s | %s | %s |\n", f.Name, ps, code(f.Body))
	}
	h.sb.WriteString("\n")
}

func (h *Handler) emitNode(n uml.Node) {
	name := n.Name()
	if name == "" || name == n.Kind().String() {
		name = "·"
	}
	st := n.Stereotype()
	if st != "" {
		st = "«" + st + "»"
	} else {
		st = "—"
	}
	details := "—"
	switch x := n.(type) {
	case *uml.ActionNode:
		var parts []string
		if x.CostFunc() != "" {
			parts = append(parts, "T = "+code(x.CostFunc()))
		}
		if x.Code() != "" {
			parts = append(parts, "has code fragment")
		}
		for _, tv := range n.Tags() {
			if tv.Name != "id" && tv.Name != "type" {
				parts = append(parts, tv.Name+" = "+code(tv.Value))
			}
		}
		if len(parts) > 0 {
			details = strings.Join(parts, ", ")
		}
	case *uml.ActivityNode:
		details = "content: " + x.Body()
		if x.CostFunc() != "" {
			details += ", T = " + code(x.CostFunc())
		}
	case *uml.LoopNode:
		details = fmt.Sprintf("repeats %s × %s", x.Body(), code(x.Count()))
		if x.Var() != "" {
			details += ", variable " + code(x.Var())
		}
	}
	fmt.Fprintf(&h.sb, "| %s | %s | %s | %s |\n", name, n.Kind(), st, details)
}

func (h *Handler) emitEdges() {
	if len(h.edges) == 0 {
		h.sb.WriteString("\n")
		return
	}
	h.sb.WriteString("\nFlows: ")
	parts := make([]string, 0, len(h.edges))
	for _, e := range h.edges {
		from := h.nodeLabel(e.From())
		to := h.nodeLabel(e.To())
		label := ""
		switch {
		case e.Guard() != "":
			label = " [" + e.Guard() + "]"
		case e.Weight() > 0:
			label = fmt.Sprintf(" (p=%g)", e.Weight())
		}
		parts = append(parts, fmt.Sprintf("%s → %s%s", from, to, label))
	}
	h.sb.WriteString(strings.Join(parts, "; "))
	h.sb.WriteString("\n\n")
	h.edges = h.edges[:0]
}

func (h *Handler) nodeLabel(id string) string {
	if h.current == nil {
		return id
	}
	n := h.current.Node(id)
	if n == nil {
		return id
	}
	if n.Name() != "" && n.Name() != n.Kind().String() {
		return n.Name()
	}
	switch n.Kind() {
	case uml.KindInitial:
		return "●"
	case uml.KindFinal:
		return "◉"
	case uml.KindDecision:
		return "◇"
	case uml.KindMerge:
		return "◇m"
	case uml.KindFork:
		return "⎮f"
	case uml.KindJoin:
		return "⎮j"
	}
	return id
}

func code(s string) string {
	return "`" + s + "`"
}

// Output returns the markdown and whether the traversal completed.
func (h *Handler) Output() (string, bool) { return h.sb.String(), h.done }

// Render documents a model in one call.
func Render(m *uml.Model) (string, error) {
	h := NewHandler()
	if err := traverse.Run(m, h); err != nil {
		return "", err
	}
	out, done := h.Output()
	if !done {
		return "", fmt.Errorf("mdgen: traversal did not complete")
	}
	return out, nil
}
