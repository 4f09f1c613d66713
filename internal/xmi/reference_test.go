package xmi

import (
	"encoding/xml"
	"fmt"
	"strings"

	"prophet/internal/uml"
)

// The reference codec: an encoding/xml document tree with reflection
// tags. Tests hold the production codec to it: a document both accept
// must decode to the same model, and every model must encode to the same
// bytes.

// xmlModel is the document root.
type xmlModel struct {
	XMLName   xml.Name      `xml:"model"`
	Name      string        `xml:"name,attr"`
	Main      string        `xml:"main,attr,omitempty"`
	Variables []xmlVariable `xml:"variable"`
	Functions []xmlFunction `xml:"function"`
	Diagrams  []xmlDiagram  `xml:"diagram"`
}

type xmlVariable struct {
	Name  string `xml:"name,attr"`
	Type  string `xml:"type,attr"`
	Scope string `xml:"scope,attr"`
	Init  string `xml:"init,attr,omitempty"`
}

type xmlFunction struct {
	Name   string     `xml:"name,attr"`
	Type   string     `xml:"type,attr,omitempty"`
	Body   string     `xml:"body,attr"`
	Params []xmlParam `xml:"param"`
}

type xmlParam struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr,omitempty"`
}

type xmlDiagram struct {
	ID    string    `xml:"id,attr"`
	Name  string    `xml:"name,attr"`
	Nodes []xmlNode `xml:"node"`
	Edges []xmlEdge `xml:"edge"`
}

type xmlNode struct {
	ID         string   `xml:"id,attr"`
	Kind       string   `xml:"kind,attr"`
	Name       string   `xml:"name,attr,omitempty"`
	Stereotype string   `xml:"stereotype,attr,omitempty"`
	Body       string   `xml:"body,attr,omitempty"`  // activity/loop body diagram
	Count      string   `xml:"count,attr,omitempty"` // loop iteration count
	Var        string   `xml:"var,attr,omitempty"`   // loop variable
	CostFunc   string   `xml:"costfunc,attr,omitempty"`
	Code       string   `xml:"code,omitempty"`
	Tags       []xmlTag `xml:"tag"`
	Consts     []string `xml:"constraint"`
}

type xmlTag struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

type xmlEdge struct {
	From   string   `xml:"from,attr"`
	To     string   `xml:"to,attr"`
	Guard  string   `xml:"guard,attr,omitempty"`
	Weight float64  `xml:"weight,attr,omitempty"`
	Tags   []xmlTag `xml:"tag"`
	Consts []string `xml:"constraint"`
}

// refEncode writes m through the reflection encoder.
func refEncode(m *uml.Model) (string, error) {
	var sb strings.Builder
	sb.WriteString(xml.Header)
	enc := xml.NewEncoder(&sb)
	enc.Indent("", "  ")
	if err := enc.Encode(toXML(m)); err != nil {
		return "", err
	}
	sb.WriteString("\n")
	return sb.String(), nil
}

// refDecode reads src through the reflection decoder. A non-nil syntax
// error means encoding/xml refused the document; a non-nil model error
// means it parsed but does not form a model.
func refDecode(src string) (m *uml.Model, syntax, model error) {
	var doc xmlModel
	if err := xml.NewDecoder(strings.NewReader(src)).Decode(&doc); err != nil {
		return nil, err, nil
	}
	m, err := fromXML(&doc)
	return m, nil, err
}

// toXML converts the model tree to its document form.
func toXML(m *uml.Model) *xmlModel {
	doc := &xmlModel{Name: m.Name(), Main: m.MainName()}
	for _, v := range m.Variables() {
		doc.Variables = append(doc.Variables, xmlVariable{
			Name: v.Name, Type: v.Type, Scope: v.Scope.String(), Init: v.Init,
		})
	}
	for _, f := range m.Functions() {
		xf := xmlFunction{Name: f.Name, Type: f.Type, Body: f.Body}
		for _, p := range f.Params {
			xf.Params = append(xf.Params, xmlParam{Name: p.Name, Type: p.Type})
		}
		doc.Functions = append(doc.Functions, xf)
	}
	for _, d := range m.Diagrams() {
		xd := xmlDiagram{ID: d.ID(), Name: d.Name()}
		for _, n := range d.Nodes() {
			xn := xmlNode{
				ID:         n.ID(),
				Kind:       n.Kind().String(),
				Name:       n.Name(),
				Stereotype: n.Stereotype(),
				Consts:     n.Constraints(),
			}
			// Control nodes get synthetic names equal to their kind; do not
			// persist those.
			if xn.Name == n.Kind().String() && n.Kind().IsControl() {
				xn.Name = ""
			}
			for _, tv := range n.Tags() {
				xn.Tags = append(xn.Tags, xmlTag{Name: tv.Name, Value: tv.Value})
			}
			switch node := n.(type) {
			case *uml.ActionNode:
				xn.Code = node.Code()
				xn.CostFunc = node.CostFunc()
			case *uml.ActivityNode:
				xn.Body = node.Body()
				xn.Code = node.Code()
				xn.CostFunc = node.CostFunc()
			case *uml.LoopNode:
				xn.Body = node.Body()
				xn.Count = node.Count()
				xn.Var = node.Var()
			}
			xd.Nodes = append(xd.Nodes, xn)
		}
		for _, e := range d.Edges() {
			xe := xmlEdge{
				From: e.From(), To: e.To(), Guard: e.Guard(), Weight: e.Weight(),
				Consts: e.Constraints(),
			}
			for _, tv := range e.Tags() {
				xe.Tags = append(xe.Tags, xmlTag{Name: tv.Name, Value: tv.Value})
			}
			xd.Edges = append(xd.Edges, xe)
		}
		doc.Diagrams = append(doc.Diagrams, xd)
	}
	return doc
}

// fromXML rebuilds the model tree from its document form.
func fromXML(doc *xmlModel) (*uml.Model, error) {
	m := uml.NewModel(doc.Name)
	for _, xv := range doc.Variables {
		scope := uml.ScopeGlobal
		switch xv.Scope {
		case "", "global":
		case "local":
			scope = uml.ScopeLocal
		default:
			return nil, fmt.Errorf("xmi: variable %q: unknown scope %q", xv.Name, xv.Scope)
		}
		if err := m.AddVariable(uml.Variable{Name: xv.Name, Type: xv.Type, Scope: scope, Init: xv.Init}); err != nil {
			return nil, fmt.Errorf("xmi: %w", err)
		}
	}
	for _, xf := range doc.Functions {
		f := uml.Function{Name: xf.Name, Type: xf.Type, Body: xf.Body}
		for _, p := range xf.Params {
			f.Params = append(f.Params, uml.Param{Name: p.Name, Type: p.Type})
		}
		if err := m.AddFunction(f); err != nil {
			return nil, fmt.Errorf("xmi: %w", err)
		}
	}
	for _, xd := range doc.Diagrams {
		d, err := m.AddDiagram(xd.Name)
		if err != nil {
			return nil, fmt.Errorf("xmi: %w", err)
		}
		d.Reserve(len(xd.Nodes), len(xd.Edges))
		for _, xn := range xd.Nodes {
			if err := addNode(m, d, xn); err != nil {
				return nil, err
			}
		}
		for _, xe := range xd.Edges {
			e, err := d.Connect(xe.From, xe.To, xe.Guard)
			if err != nil {
				return nil, fmt.Errorf("xmi: diagram %q: %w", xd.Name, err)
			}
			e.SetWeight(xe.Weight)
			for _, tv := range xe.Tags {
				e.SetTag(tv.Name, tv.Value)
			}
			for _, c := range xe.Consts {
				e.AddConstraint(c)
			}
		}
	}
	if doc.Main != "" {
		if err := m.SetMain(doc.Main); err != nil {
			return nil, fmt.Errorf("xmi: %w", err)
		}
	}
	return m, nil
}

func addNode(m *uml.Model, d *uml.Diagram, xn xmlNode) error {
	kind := uml.KindFromName(xn.Kind)
	var (
		n   uml.Node
		err error
	)
	switch kind {
	case uml.KindAction:
		var a *uml.ActionNode
		a, err = m.AddAction(d, xn.ID, xn.Name)
		if err == nil {
			a.SetCode(xn.Code)
			a.SetCostFunc(xn.CostFunc)
			n = a
		}
	case uml.KindActivity:
		var a *uml.ActivityNode
		a, err = m.AddActivity(d, xn.ID, xn.Name, xn.Body)
		if err == nil {
			a.SetCode(xn.Code)
			a.SetCostFunc(xn.CostFunc)
			n = a
		}
	case uml.KindLoop:
		var l *uml.LoopNode
		l, err = m.AddLoop(d, xn.ID, xn.Name, xn.Count, xn.Body)
		if err == nil {
			l.SetVar(xn.Var)
			n = l
		}
	case uml.KindInitial, uml.KindFinal, uml.KindDecision, uml.KindMerge,
		uml.KindFork, uml.KindJoin:
		var c *uml.ControlNode
		c, err = m.AddControl(d, xn.ID, kind)
		if err == nil {
			if xn.Name != "" {
				c.SetName(xn.Name)
			}
			n = c
		}
	default:
		return fmt.Errorf("xmi: node %q: unknown kind %q", xn.ID, xn.Kind)
	}
	if err != nil {
		return fmt.Errorf("xmi: %w", err)
	}
	n.SetStereotype(xn.Stereotype)
	for _, tv := range xn.Tags {
		n.SetTag(tv.Name, tv.Value)
	}
	for _, c := range xn.Consts {
		n.AddConstraint(c)
	}
	return nil
}
