package xmi

import (
	"io"
	"strconv"
	"unicode/utf8"

	"prophet/internal/uml"
)

// chunk is the size at which a writer with a destination hands its
// buffer over.
const chunk = 32 << 10

// writer renders the canonical document: two-space indentation, every
// element written with an end tag, attributes in a fixed order and empty
// optional ones left out, and text escaped as encoding/xml escapes it.
// With a nil w the whole document stays in buf.
type writer struct {
	buf []byte
	w   io.Writer
	err error
}

func (e *writer) flush() {
	if e.w != nil && e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// line starts a new line at the given depth.
func (e *writer) line(depth int) {
	if e.w != nil && len(e.buf) >= chunk {
		e.flush()
	}
	e.buf = append(e.buf, '\n')
	for i := 0; i < depth; i++ {
		e.buf = append(e.buf, "  "...)
	}
}

// open starts element name on a new line at the given depth, with its
// attributes given as name, value pairs. An optional attribute, whose
// name starts with '?', is left out when its value is empty.
func (e *writer) open(depth int, name string, attrs ...string) {
	e.line(depth)
	e.buf = append(append(e.buf, '<'), name...)
	for i := 0; i < len(attrs); i += 2 {
		name, value := attrs[i], attrs[i+1]
		if name[0] == '?' {
			if value == "" {
				continue
			}
			name = name[1:]
		}
		e.buf = append(append(append(e.buf, ' '), name...), `="`...)
		e.escape(value)
		e.buf = append(e.buf, '"')
	}
}

// content ends a start tag that children follow.
func (e *writer) content(children bool) bool {
	if children {
		e.buf = append(e.buf, '>')
	}
	return children
}

// end writes the end tag of name, on a new line at depth if the element
// has children, else right after its start tag.
func (e *writer) end(depth int, name string, children bool) {
	if children {
		e.line(depth)
	} else {
		e.buf = append(e.buf, '>')
	}
	e.buf = append(append(append(e.buf, "</"...), name...), '>')
}

// text writes <name>s</name> at depth.
func (e *writer) text(depth int, name, s string) {
	e.open(depth, name)
	e.buf = append(e.buf, '>')
	e.escape(s)
	e.buf = append(append(append(e.buf, "</"...), name...), '>')
}

// escapes maps each ASCII byte encoding/xml escapes to its escape.
var escapes = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD" // not an XML character
	}
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	return t
}()

// escape appends s as encoding/xml's EscapeString does: markup
// characters, tab, LF and CR as references, and each byte sequence that
// is not an XML character as U+FFFD.
func (e *writer) escape(s string) {
	last := 0
	for i := 0; i < len(s); {
		esc, width := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = escapes[c]
		} else if r, w := utf8.DecodeRuneInString(s[i:]); !isXMLChar(r) || r == utf8.RuneError && w == 1 {
			esc = "\uFFFD"
		} else {
			width = w
		}
		if esc != "" {
			e.buf = append(append(e.buf, s[last:i]...), esc...)
			last = i + width
		}
		i += width
	}
	e.buf = append(e.buf, s[last:]...)
}

func (e *writer) model(m *uml.Model) {
	e.buf = append(e.buf, `<?xml version="1.0" encoding="UTF-8"?>`...)
	e.open(0, "model", "name", m.Name(), "?main", m.MainName())
	children := e.content(len(m.Variables())+len(m.Functions())+len(m.Diagrams()) > 0)
	for _, v := range m.Variables() {
		e.open(1, "variable", "name", v.Name, "type", v.Type, "scope", v.Scope.String(), "?init", v.Init)
		e.end(1, "variable", false)
	}
	for _, f := range m.Functions() {
		e.open(1, "function", "name", f.Name, "?type", f.Type, "body", f.Body)
		params := e.content(len(f.Params) > 0)
		for _, p := range f.Params {
			e.open(2, "param", "name", p.Name, "?type", p.Type)
			e.end(2, "param", false)
		}
		e.end(1, "function", params)
	}
	for _, d := range m.Diagrams() {
		e.diagram(d)
	}
	e.end(0, "model", children)
	e.buf = append(e.buf, '\n')
}

func (e *writer) diagram(d *uml.Diagram) {
	e.open(1, "diagram", "id", d.ID(), "name", d.Name())
	children := e.content(len(d.Nodes())+len(d.Edges()) > 0)
	for _, n := range d.Nodes() {
		name, kind := n.Name(), n.Kind()
		if kind.IsControl() && name == kind.String() {
			name = "" // a control node's synthetic name is not persisted
		}
		var body, count, loopVar, costFunc, code string
		switch x := n.(type) {
		case *uml.ActionNode:
			costFunc, code = x.CostFunc(), x.Code()
		case *uml.ActivityNode:
			body, costFunc, code = x.Body(), x.CostFunc(), x.Code()
		case *uml.LoopNode:
			body, count, loopVar = x.Body(), x.Count(), x.Var()
		}
		e.open(2, "node", "id", n.ID(), "kind", kind.String(), "?name", name, "?stereotype", n.Stereotype(),
			"?body", body, "?count", count, "?var", loopVar, "?costfunc", costFunc)
		e.extensions(n, code, "node")
	}
	for _, ed := range d.Edges() {
		weight := ""
		if ed.Weight() != 0 {
			weight = strconv.FormatFloat(ed.Weight(), 'g', -1, 64)
		}
		e.open(2, "edge", "from", ed.From(), "to", ed.To(), "?guard", ed.Guard(), "?weight", weight)
		e.extensions(ed, "", "edge")
	}
	e.end(1, "diagram", children)
}

// extensions writes an element's code, tags and constraints and closes
// it.
func (e *writer) extensions(el uml.Element, code, name string) {
	tags, consts := el.Tags(), el.Constraints()
	children := e.content(code != "" || len(tags)+len(consts) > 0)
	if code != "" {
		e.text(3, "code", code)
	}
	for _, tv := range tags {
		e.open(3, "tag", "name", tv.Name, "value", tv.Value)
		e.end(3, "tag", false)
	}
	for _, c := range consts {
		e.text(3, "constraint", c)
	}
	e.end(2, name, children)
}
