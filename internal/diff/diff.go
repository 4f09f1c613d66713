// Package diff compares two performance models structurally and reports
// what changed: variables, cost functions, diagrams, nodes (including
// their stereotypes, tags, cost functions and code fragments) and edges.
// It supports the model-evolution workflow around Teuta's XML model files
// — reviewing what a colleague changed before re-running predictions.
//
// Elements are matched by ID within same-named diagrams, edges by their
// (from, to) endpoints.
package diff

import (
	"fmt"
	"sort"
	"strings"

	"prophet/internal/uml"
)

// Op classifies one change.
type Op string

const (
	// Added: present in the new model only.
	Added Op = "added"
	// Removed: present in the old model only.
	Removed Op = "removed"
	// Changed: present in both with different content.
	Changed Op = "changed"
)

// Change is one reported difference.
type Change struct {
	Op Op
	// Path locates the changed thing, e.g. "diagram main / node e3 (A1)".
	Path string
	// Detail describes the change, e.g. `cost function: "FA1()" -> "FB()"`.
	Detail string
}

// String renders "changed diagram main / node e3 (A1): cost ...".
func (c Change) String() string {
	if c.Detail == "" {
		return fmt.Sprintf("%s %s", c.Op, c.Path)
	}
	return fmt.Sprintf("%s %s: %s", c.Op, c.Path, c.Detail)
}

// Models compares old and new and returns the ordered change list (empty
// when the models are structurally identical).
func Models(oldM, newM *uml.Model) []Change {
	var out []Change
	add := func(op Op, path, detail string) {
		out = append(out, Change{Op: op, Path: path, Detail: detail})
	}

	if oldM.Name() != newM.Name() {
		add(Changed, "model", fmt.Sprintf("name: %q -> %q", oldM.Name(), newM.Name()))
	}
	if oldM.MainName() != newM.MainName() {
		add(Changed, "model", fmt.Sprintf("main diagram: %q -> %q", oldM.MainName(), newM.MainName()))
	}

	diffVariables(oldM, newM, add)
	diffFunctions(oldM, newM, add)
	diffDiagrams(oldM, newM, add)
	return out
}

func diffVariables(oldM, newM *uml.Model, add func(Op, string, string)) {
	type key struct {
		name  string
		scope uml.VarScope
	}
	oldV := map[key]uml.Variable{}
	for _, v := range oldM.Variables() {
		oldV[key{v.Name, v.Scope}] = v
	}
	newV := map[key]uml.Variable{}
	for _, v := range newM.Variables() {
		newV[key{v.Name, v.Scope}] = v
	}
	for _, v := range oldM.Variables() {
		k := key{v.Name, v.Scope}
		nv, ok := newV[k]
		path := fmt.Sprintf("%s variable %s", v.Scope, v.Name)
		if !ok {
			add(Removed, path, "")
			continue
		}
		if nv.Type != v.Type || nv.Init != v.Init {
			add(Changed, path, fmt.Sprintf("%s = %q -> %s = %q", v.Type, v.Init, nv.Type, nv.Init))
		}
	}
	for _, v := range newM.Variables() {
		if _, ok := oldV[key{v.Name, v.Scope}]; !ok {
			add(Added, fmt.Sprintf("%s variable %s", v.Scope, v.Name), "")
		}
	}
}

func diffFunctions(oldM, newM *uml.Model, add func(Op, string, string)) {
	sig := func(f uml.Function) string {
		params := make([]string, len(f.Params))
		for i, p := range f.Params {
			params[i] = p.Type + " " + p.Name
		}
		return fmt.Sprintf("%s(%s) = %s", f.ReturnType(), strings.Join(params, ", "), f.Body)
	}
	for _, f := range oldM.Functions() {
		nf, ok := newM.Function(f.Name)
		path := "function " + f.Name
		if !ok {
			add(Removed, path, "")
			continue
		}
		if sig(f) != sig(nf) {
			add(Changed, path, fmt.Sprintf("%s -> %s", sig(f), sig(nf)))
		}
	}
	for _, f := range newM.Functions() {
		if _, ok := oldM.Function(f.Name); !ok {
			add(Added, "function "+f.Name, "")
		}
	}
}

func diffDiagrams(oldM, newM *uml.Model, add func(Op, string, string)) {
	for _, od := range oldM.Diagrams() {
		nd := newM.DiagramByName(od.Name())
		if nd == nil {
			add(Removed, "diagram "+od.Name(), "")
			continue
		}
		diffNodes(od, nd, add)
		diffEdges(od, nd, add)
	}
	for _, nd := range newM.Diagrams() {
		if oldM.DiagramByName(nd.Name()) == nil {
			add(Added, "diagram "+nd.Name(), "")
		}
	}
}

func nodePath(d *uml.Diagram, n uml.Node) string {
	label := n.ID()
	if n.Name() != "" && n.Name() != n.Kind().String() {
		label += " (" + n.Name() + ")"
	}
	return fmt.Sprintf("diagram %s / node %s", d.Name(), label)
}

func diffNodes(od, nd *uml.Diagram, add func(Op, string, string)) {
	for _, on := range od.Nodes() {
		nn := nd.Node(on.ID())
		path := nodePath(od, on)
		if nn == nil {
			add(Removed, path, "")
			continue
		}
		for _, detail := range nodeChanges(on, nn) {
			add(Changed, path, detail)
		}
	}
	for _, nn := range nd.Nodes() {
		if od.Node(nn.ID()) == nil {
			add(Added, nodePath(nd, nn), "")
		}
	}
}

// nodeChanges lists human-readable differences between two same-ID nodes.
func nodeChanges(on, nn uml.Node) []string {
	var out []string
	if on.Kind() != nn.Kind() {
		out = append(out, fmt.Sprintf("kind: %v -> %v", on.Kind(), nn.Kind()))
		return out // payload comparison is meaningless across kinds
	}
	if on.Name() != nn.Name() {
		out = append(out, fmt.Sprintf("name: %q -> %q", on.Name(), nn.Name()))
	}
	if on.Stereotype() != nn.Stereotype() {
		out = append(out, fmt.Sprintf("stereotype: <<%s>> -> <<%s>>", on.Stereotype(), nn.Stereotype()))
	}
	out = append(out, tagChanges(on, nn)...)
	switch o := on.(type) {
	case *uml.ActionNode:
		n := nn.(*uml.ActionNode)
		if o.CostFunc() != n.CostFunc() {
			out = append(out, fmt.Sprintf("cost function: %q -> %q", o.CostFunc(), n.CostFunc()))
		}
		if o.Code() != n.Code() {
			out = append(out, "code fragment changed")
		}
	case *uml.ActivityNode:
		n := nn.(*uml.ActivityNode)
		if o.Body() != n.Body() {
			out = append(out, fmt.Sprintf("body: %q -> %q", o.Body(), n.Body()))
		}
		if o.CostFunc() != n.CostFunc() {
			out = append(out, fmt.Sprintf("cost function: %q -> %q", o.CostFunc(), n.CostFunc()))
		}
	case *uml.LoopNode:
		n := nn.(*uml.LoopNode)
		if o.Count() != n.Count() {
			out = append(out, fmt.Sprintf("count: %q -> %q", o.Count(), n.Count()))
		}
		if o.Body() != n.Body() {
			out = append(out, fmt.Sprintf("body: %q -> %q", o.Body(), n.Body()))
		}
		if o.Var() != n.Var() {
			out = append(out, fmt.Sprintf("loop variable: %q -> %q", o.Var(), n.Var()))
		}
	}
	return out
}

func tagChanges(on, nn uml.Element) []string {
	var out []string
	oldTags := map[string]string{}
	for _, tv := range on.Tags() {
		oldTags[tv.Name] = tv.Value
	}
	newTags := map[string]string{}
	for _, tv := range nn.Tags() {
		newTags[tv.Name] = tv.Value
	}
	var names []string
	for k := range oldTags {
		names = append(names, k)
	}
	for k := range newTags {
		if _, seen := oldTags[k]; !seen {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		ov, oOK := oldTags[k]
		nv, nOK := newTags[k]
		switch {
		case oOK && !nOK:
			out = append(out, fmt.Sprintf("tag %s removed (was %q)", k, ov))
		case !oOK && nOK:
			out = append(out, fmt.Sprintf("tag %s added (%q)", k, nv))
		case ov != nv:
			out = append(out, fmt.Sprintf("tag %s: %q -> %q", k, ov, nv))
		}
	}
	return out
}

func diffEdges(od, nd *uml.Diagram, add func(Op, string, string)) {
	type key struct{ from, to string }
	oldE := map[key]*uml.Edge{}
	for _, e := range od.Edges() {
		oldE[key{e.From(), e.To()}] = e
	}
	newE := map[key]*uml.Edge{}
	for _, e := range nd.Edges() {
		newE[key{e.From(), e.To()}] = e
	}
	edgePath := func(d *uml.Diagram, e *uml.Edge) string {
		return fmt.Sprintf("diagram %s / edge %s -> %s", d.Name(), e.From(), e.To())
	}
	for _, e := range od.Edges() {
		ne, ok := newE[key{e.From(), e.To()}]
		if !ok {
			add(Removed, edgePath(od, e), "")
			continue
		}
		if e.Guard() != ne.Guard() {
			add(Changed, edgePath(od, e), fmt.Sprintf("guard: %q -> %q", e.Guard(), ne.Guard()))
		}
		if e.Weight() != ne.Weight() {
			add(Changed, edgePath(od, e), fmt.Sprintf("weight: %g -> %g", e.Weight(), ne.Weight()))
		}
	}
	for _, e := range nd.Edges() {
		if _, ok := oldE[key{e.From(), e.To()}]; !ok {
			add(Added, edgePath(nd, e), "")
		}
	}
}

// Format renders a change list, one change per line; "(no differences)"
// when empty.
func Format(changes []Change) string {
	if len(changes) == 0 {
		return "(no differences)\n"
	}
	var sb strings.Builder
	for _, c := range changes {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
