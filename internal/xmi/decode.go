package xmi

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"prophet/internal/uml"
)

// SyntaxError reports a document outside the accepted grammar (see the
// package documentation). Its text quotes at most 64 bytes of the input.
type SyntaxError struct {
	Offset int // byte offset of the refused construct
	Line   int // 1-based line of Offset
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmi: decode: line %d: %s", e.Line, e.Msg)
}

// quote renders the at most 64 bytes of s an error message may repeat.
// Names, which are ASCII, are cut to 64 bytes by their %.64s verbs.
func quote(s string) string { return strconv.Quote(s[:min(len(s), 64)]) }

// decoder scans one document and builds its model as it goes.
type decoder struct {
	s     string
	pos   int
	attrs []attr // attributes of the start tag read last
	buf   []byte // scratch for text that needs unescaping
	m     *uml.Model
	sizes []int32 // node and edge count of each diagram, from survey
	edges []edge  // edges of the diagram being read
}

type attr struct {
	name, value string
	at          int
}

// edge is an edge read but not yet connected: a diagram's edges connect
// once all its nodes are in, so they may precede the nodes they join.
type edge struct {
	from, to, guard string
	weight          float64
	tags            []uml.TaggedValue
	constraints     []string
}

func decode(s string) (*uml.Model, error) {
	d := decoder{s: s}
	hint, err := d.survey()
	if err == nil {
		err = d.document(hint)
	}
	if err != nil {
		return nil, err
	}
	return d.m, nil
}

func (d *decoder) fail(at int, format string, args ...any) error {
	return &SyntaxError{Offset: at, Line: 1 + strings.Count(d.s[:at], "\n"), Msg: fmt.Sprintf(format, args...)}
}

// survey checks that the document is UTF-8 of XML characters and counts
// its elements from the bytes alone, so the model can be preallocated. A
// miscount (an element inside a comment, a single-quoted kind) costs
// memory, not correctness.
func (d *decoder) survey() (uml.SizeHint, error) {
	var h uml.SizeHint
	for i := 0; i < len(d.s); i++ {
		switch c := d.s[i]; {
		case c == '<':
			rest := d.s[i+1:]
			switch last := len(d.sizes) - 2; {
			case strings.HasPrefix(rest, "node"):
				if end := strings.IndexAny(rest, "<>"); end >= 0 {
					rest = rest[:end] // the start tag; a bound keeps the survey linear
				}
				_, kind, _ := strings.Cut(rest, ` kind="`)
				switch {
				case strings.HasPrefix(kind, "Action"):
					h.Actions++
				case strings.HasPrefix(kind, "Activity"):
					h.Activities++
				case strings.HasPrefix(kind, "LoopNode"):
					h.Loops++
				default:
					h.Controls++
				}
				if last >= 0 {
					d.sizes[last]++
				}
			case strings.HasPrefix(rest, "edge"):
				if h.Edges++; last >= 0 {
					d.sizes[last+1]++
				}
			case strings.HasPrefix(rest, "diagram"):
				h.Diagrams++
				d.sizes = append(d.sizes, 0, 0)
			case strings.HasPrefix(rest, "variable"):
				h.Variables++
			case strings.HasPrefix(rest, "function"):
				h.Functions++
			}
		case c >= 0x20 && c < utf8.RuneSelf || c == '\n' || c == '\t' || c == '\r':
		default:
			r, width := utf8.DecodeRuneInString(d.s[i:])
			if r == utf8.RuneError && width == 1 {
				return h, d.fail(i, "invalid UTF-8")
			}
			if !isXMLChar(r) {
				return h, d.fail(i, "illegal character %U", r)
			}
			i += width - 1
		}
	}
	return h, nil
}

// isXMLChar reports whether r is a character XML 1.0 permits.
func isXMLChar(r rune) bool {
	return r >= 0x20 && r <= 0xD7FF || r == '\t' || r == '\n' || r == '\r' ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

var (
	xmlDecl = regexp.MustCompile(`^<\?xml[ \t\r\n]+version=("1\.0"|'1\.0')` +
		`(?:[ \t\r\n]+encoding=("(?i:utf-8)"|'(?i:utf-8)'))?` +
		`(?:[ \t\r\n]+standalone=("yes"|"no"|'yes'|'no'))?[ \t\r\n]*\?>`)
	procInst = regexp.MustCompile(`(?s)^<\?([A-Za-z_:][\w.:-]*)(?:[ \t\r\n].*?)??\?>`)
)

func (d *decoder) document(hint uml.SizeHint) error {
	d.pos = len(d.s) - len(strings.TrimPrefix(d.s, "\uFEFF"))
	if decl := xmlDecl.FindStringIndex(d.s[d.pos:]); decl != nil {
		d.pos += decl[1]
	}
	if err := d.misc(true); err != nil {
		return err
	}
	at := d.pos
	name, end, empty, err := d.tag("")
	if err != nil {
		return err
	}
	if end || name != "model" {
		return d.fail(at, "root element <%.64s>, want <model>", name)
	}
	var a [2]string
	if err := d.bind("model", []string{"name", "main"}, a[:]); err != nil {
		return err
	}
	d.m = uml.NewModel(a[0])
	d.m.Preallocate(hint)
	err = d.children("model", empty, func(k int, empty bool) error {
		switch k {
		case 0:
			return d.variable(empty)
		case 1:
			return d.function(empty)
		}
		return d.diagram(empty)
	}, "variable", "function", "diagram")
	if err != nil {
		return err
	}
	if a[1] != "" {
		if err := d.m.SetMain(a[1]); err != nil {
			return fmt.Errorf("xmi: %w", err)
		}
	}
	if err := d.misc(false); err != nil {
		return err
	}
	if d.pos < len(d.s) {
		return d.fail(d.pos, "trailing bytes after </model>")
	}
	return nil
}

// misc skips white space and comments, and in the prolog also processing
// instructions; there any other character data is refused.
func (d *decoder) misc(prolog bool) error {
	for d.pos < len(d.s) {
		rest := d.s[d.pos:]
		switch c := rest[0]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			d.pos++
		case c != '<' && prolog:
			return d.fail(d.pos, "character data %s before <model>", quote(d.s[d.pos:d.runEnd()]))
		case strings.HasPrefix(rest, "<!--"):
			if err := d.comment(); err != nil {
				return err
			}
		case strings.HasPrefix(rest, "<?") && !prolog:
			return d.fail(d.pos, "processing instruction after the prolog")
		case strings.HasPrefix(rest, "<?"):
			m := procInst.FindStringSubmatchIndex(rest)
			if m == nil {
				return d.fail(d.pos, "malformed processing instruction")
			}
			if strings.EqualFold(rest[m[2]:m[3]], "xml") { // a declaration not first or not well-formed
				return d.fail(d.pos, "malformed XML declaration")
			}
			d.pos += m[1]
		case strings.HasPrefix(rest, "<!["):
			return d.fail(d.pos, "CDATA section outside <code> and <constraint>")
		case strings.HasPrefix(rest, "<!"):
			return d.fail(d.pos, "DOCTYPE or other declaration %s", quote(rest))
		default:
			return nil
		}
	}
	return nil
}

// runEnd returns where the character data at the read position ends.
func (d *decoder) runEnd() int {
	if i := strings.IndexByte(d.s[d.pos:], '<'); i >= 0 {
		return d.pos + i
	}
	return len(d.s)
}

// comment skips the comment at the read position.
func (d *decoder) comment() error {
	end := strings.Index(d.s[d.pos+4:], "--") + d.pos + 4
	if end < d.pos+4 || !strings.HasPrefix(d.s[end:], "-->") {
		return d.fail(d.pos, "malformed comment")
	}
	d.pos = end + 3
	return nil
}

func (d *decoder) space() {
	for d.pos < len(d.s) && (d.s[d.pos] == ' ' || d.s[d.pos] == '\t' || d.s[d.pos] == '\n' || d.s[d.pos] == '\r') {
		d.pos++
	}
}

// name reads the name at the read position and refuses a prefixed one.
// Names are ASCII: letters, digits, '_', '-', '.' and ':', not starting
// with a digit, '-' or '.'. parent says where the name is ("" before the
// root element) for the message when the input ends.
func (d *decoder) name(parent string) (string, error) {
	at := d.pos
	for ; d.pos < len(d.s); d.pos++ {
		c := d.s[d.pos]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == ':' ||
			d.pos > at && ('0' <= c && c <= '9' || c == '-' || c == '.')) {
			break
		}
	}
	name := d.s[at:d.pos]
	switch {
	case name == "" && at == len(d.s) && parent == "":
		return "", d.fail(at, "unexpected end of input before <model>")
	case name == "" && at == len(d.s):
		return "", d.fail(at, "unexpected end of input in <%.64s>", parent)
	case name == "":
		return "", d.fail(at, "malformed tag: expected a name, found %s", quote(d.s[at:]))
	case strings.IndexByte(name, ':') >= 0:
		return "", d.fail(at, "prefixed name %s", quote(name))
	}
	return name, nil
}

// tag reads the start or end tag at the read position inside parent. A
// start tag's attributes are left in d.attrs; empty says it self-closed.
func (d *decoder) tag(parent string) (name string, end, empty bool, err error) {
	at := d.pos
	if d.pos < len(d.s) {
		d.pos++ // '<'
	}
	if end = d.pos < len(d.s) && d.s[d.pos] == '/'; end {
		d.pos++
	}
	if name, err = d.name(parent); err != nil {
		return "", false, false, err
	}
	d.attrs = d.attrs[:0]
	for {
		d.space()
		rest := d.s[d.pos:]
		switch {
		case rest == "":
			return "", false, false, d.fail(at, "unexpected end of input in <%.64s>", name)
		case rest[0] == '>':
			d.pos++
			return name, end, false, nil
		case !end && strings.HasPrefix(rest, "/>"):
			d.pos += 2
			return name, false, true, nil
		case end || rest[0] == '/':
			return "", false, false, d.fail(d.pos, "malformed tag: expected '>', found %s", quote(rest))
		}
		if err := d.attr(name); err != nil {
			return "", false, false, err
		}
	}
}

// attr reads one attribute of the start tag of element into d.attrs.
func (d *decoder) attr(element string) error {
	at := d.pos
	name, err := d.name(element)
	if err != nil {
		return err
	}
	d.space()
	if d.pos >= len(d.s) || d.s[d.pos] != '=' {
		return d.fail(d.pos, "malformed tag: expected '=' after attribute %s", quote(name))
	}
	d.pos++
	d.space()
	if d.pos >= len(d.s) || d.s[d.pos] != '"' && d.s[d.pos] != '\'' {
		return d.fail(d.pos, "malformed tag: expected a quoted value for attribute %s", quote(name))
	}
	q, start, end, special := d.s[d.pos], d.pos+1, d.pos+1, false
	for ; end < len(d.s) && d.s[end] != q; end++ {
		switch d.s[end] {
		case '<':
			return d.fail(end, "'<' in attribute value")
		case '&', '\r':
			special = true
		}
	}
	if end == len(d.s) {
		return d.fail(at, "unexpected end of input in <%.64s>", element)
	}
	value := d.s[start:end]
	if special {
		d.buf = d.buf[:0]
		if err := d.appendText(value, start, true); err != nil {
			return err
		}
		value = string(d.buf)
	}
	d.pos = end + 1
	d.attrs = append(d.attrs, attr{name: name, value: value, at: at})
	return nil
}

// appendText appends raw, found at offset at, to d.buf with CR LF and CR
// turned into LF and, if refs, its references resolved.
func (d *decoder) appendText(raw string, at int, refs bool) error {
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '\r':
			d.buf = append(d.buf, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
		case c == '&' && refs:
			semi := strings.IndexByte(raw[i:], ';')
			if semi < 0 {
				return d.fail(at+i, "invalid entity or character reference %s", quote(raw[i:]))
			}
			r, ok := reference(raw[i+1 : i+semi])
			if !ok {
				return d.fail(at+i, "invalid entity or character reference %s", quote(raw[i:i+semi+1]))
			}
			d.buf = utf8.AppendRune(d.buf, r)
			i += semi
		default:
			d.buf = append(d.buf, c)
		}
	}
	return nil
}

var entities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "quot": '"', "apos": '\''}

// reference resolves the entity or character reference named ent, the
// text between '&' and ';'.
func reference(ent string) (rune, bool) {
	if r, ok := entities[ent]; ok {
		return r, true
	}
	digits, ok := strings.CutPrefix(ent, "#")
	base := 10
	if hex, isHex := strings.CutPrefix(digits, "x"); isHex {
		digits, base = hex, 16
	}
	n, err := strconv.ParseUint(digits, base, 32)
	return rune(n), ok && err == nil && isXMLChar(rune(n))
}

// children reads the children of element name through its end tag,
// skipping white space and comments, and hands each to kid with its index
// among kinds, the elements name may hold, and whether it self-closed.
// empty says the element's start tag self-closed.
func (d *decoder) children(name string, empty bool, kid func(int, bool) error, kinds ...string) error {
	for !empty {
		if err := d.misc(false); err != nil {
			return err
		}
		at := d.pos
		if at < len(d.s) && d.s[at] != '<' {
			return d.fail(at, "character data %s in <%s>", quote(d.s[at:d.runEnd()]), name)
		}
		child, end, kempty, err := d.tag(name)
		k := slices.Index(kinds, child)
		switch {
		case err != nil:
			return err
		case end && child != name:
			return d.fail(at, "end tag </%.64s> does not close <%s>", child, name)
		case end:
			return nil
		case k < 0:
			return d.fail(at, "unknown element <%.64s> in <%s>", child, name)
		}
		if err := kid(k, kempty); err != nil {
			return err
		}
	}
	return nil
}

// bind stores the value of each attribute of the start tag read last in
// vals, at the position of its name in names, and refuses any other
// attribute and any attribute given twice.
func (d *decoder) bind(element string, names []string, vals []string) error {
	seen := 0
	for _, a := range d.attrs {
		i := slices.Index(names, a.name)
		switch {
		case i < 0:
			return d.fail(a.at, "unknown attribute %s on <%s>", quote(a.name), element)
		case seen&(1<<i) != 0:
			return d.fail(a.at, "duplicate attribute %s on <%s>", quote(a.name), element)
		}
		seen |= 1 << i
		vals[i] = a.value
	}
	return nil
}

func (d *decoder) variable(empty bool) error {
	var a [4]string
	if err := d.bind("variable", []string{"name", "type", "scope", "init"}, a[:]); err != nil {
		return err
	}
	if err := d.children("variable", empty, nil); err != nil {
		return err
	}
	v := uml.Variable{Name: a[0], Type: a[1], Init: a[3]}
	switch a[2] {
	case "", "global":
	case "local":
		v.Scope = uml.ScopeLocal
	default:
		return fmt.Errorf("xmi: variable %q: unknown scope %q", v.Name, a[2])
	}
	if err := d.m.AddVariable(v); err != nil {
		return fmt.Errorf("xmi: %w", err)
	}
	return nil
}

func (d *decoder) function(empty bool) error {
	var a [3]string
	if err := d.bind("function", []string{"name", "type", "body"}, a[:]); err != nil {
		return err
	}
	f := uml.Function{Name: a[0], Type: a[1], Body: a[2]}
	err := d.children("function", empty, func(_ int, empty bool) error {
		var p [2]string
		if err := d.bind("param", []string{"name", "type"}, p[:]); err != nil {
			return err
		}
		f.Params = append(f.Params, uml.Param{Name: p[0], Type: p[1]})
		return d.children("param", empty, nil)
	}, "param")
	if err != nil {
		return err
	}
	if err := d.m.AddFunction(f); err != nil {
		return fmt.Errorf("xmi: %w", err)
	}
	return nil
}

func (d *decoder) diagram(empty bool) error {
	var a [2]string // the id is assigned by the model
	if err := d.bind("diagram", []string{"id", "name"}, a[:]); err != nil {
		return err
	}
	dg, err := d.m.AddDiagram(a[1])
	if err != nil {
		return fmt.Errorf("xmi: %w", err)
	}
	if k := 2 * (len(d.m.Diagrams()) - 1); k+1 < len(d.sizes) {
		dg.Reserve(int(d.sizes[k]), int(d.sizes[k+1]))
	}
	d.edges = d.edges[:0]
	err = d.children("diagram", empty, func(k int, empty bool) error {
		if k == 0 {
			return d.node(dg, empty)
		}
		return d.edge(empty)
	}, "node", "edge")
	if err != nil {
		return err
	}
	for _, pe := range d.edges {
		e, err := dg.Connect(pe.from, pe.to, pe.guard)
		if err != nil {
			return fmt.Errorf("xmi: diagram %q: %w", dg.Name(), err)
		}
		e.SetWeight(pe.weight)
		for _, tv := range pe.tags {
			e.SetTag(tv.Name, tv.Value)
		}
		for _, c := range pe.constraints {
			e.AddConstraint(c)
		}
	}
	return nil
}

func (d *decoder) node(dg *uml.Diagram, empty bool) error {
	var a [8]string
	if err := d.bind("node", []string{"id", "kind", "name", "stereotype", "body", "count", "var", "costfunc"}, a[:]); err != nil {
		return err
	}
	id, kind, name, body, costFunc := a[0], a[1], a[2], a[4], a[7]
	var (
		n    uml.Node
		code interface{ SetCode(string) } // the node that keeps a <code> text
		err  error
	)
	switch k := uml.KindFromName(kind); {
	case k == uml.KindAction:
		var x *uml.ActionNode
		if x, err = d.m.AddAction(dg, id, name); err == nil {
			x.SetCostFunc(costFunc)
			code, n = x, x
		}
	case k == uml.KindActivity:
		var x *uml.ActivityNode
		if x, err = d.m.AddActivity(dg, id, name, body); err == nil {
			x.SetCostFunc(costFunc)
			code, n = x, x
		}
	case k == uml.KindLoop:
		var x *uml.LoopNode
		if x, err = d.m.AddLoop(dg, id, name, a[5], body); err == nil {
			x.SetVar(a[6])
			n = x
		}
	case k.IsControl():
		var x *uml.ControlNode
		if x, err = d.m.AddControl(dg, id, k); err == nil && name != "" {
			x.SetName(name)
		}
		n = x
	default:
		return fmt.Errorf("xmi: node %q: unknown kind %q", id, kind)
	}
	if err != nil {
		return fmt.Errorf("xmi: %w", err)
	}
	n.SetStereotype(a[3])
	sawCode := false
	return d.children("node", empty, func(k int, empty bool) error {
		var text string
		var err error
		switch {
		case k == 0 && sawCode:
			return d.fail(d.pos, "duplicate <code> in <node>")
		case k == 0:
			if text, err = d.text("code", empty); code != nil {
				code.SetCode(text)
			}
			sawCode = true
		case k == 1:
			var name string
			name, text, err = d.tagElement(empty)
			n.SetTag(name, text)
		default:
			text, err = d.text("constraint", empty)
			n.AddConstraint(text)
		}
		return err
	}, "code", "tag", "constraint")
}

// edge reads an edge into d.edges.
func (d *decoder) edge(empty bool) error {
	var a [4]string
	if err := d.bind("edge", []string{"from", "to", "guard", "weight"}, a[:]); err != nil {
		return err
	}
	pe := edge{from: a[0], to: a[1], guard: a[2]}
	if a[3] != "" {
		w, err := strconv.ParseFloat(strings.TrimSpace(a[3]), 64)
		if err != nil {
			return d.fail(d.pos, "malformed number %s for weight", quote(a[3]))
		}
		pe.weight = w
	}
	err := d.children("edge", empty, func(k int, empty bool) error {
		var tv uml.TaggedValue
		var err error
		if k == 0 {
			tv.Name, tv.Value, err = d.tagElement(empty)
			pe.tags = append(pe.tags, tv)
		} else {
			tv.Value, err = d.text("constraint", empty)
			pe.constraints = append(pe.constraints, tv.Value)
		}
		return err
	}, "tag", "constraint")
	d.edges = append(d.edges, pe)
	return err
}

// tagElement reads the rest of a <tag>.
func (d *decoder) tagElement(empty bool) (name, value string, err error) {
	var a [2]string
	if err := d.bind("tag", []string{"name", "value"}, a[:]); err != nil {
		return "", "", err
	}
	return a[0], a[1], d.children("tag", empty, nil)
}

// text reads the content of a <code> or <constraint> element through its
// end tag: character data, CDATA sections and comments. Plain text in one
// run shares the input's memory.
func (d *decoder) text(elem string, empty bool) (string, error) {
	if empty {
		return "", nil
	}
	start, plain := d.pos, true
	d.buf = d.buf[:0]
	for {
		at, end := d.pos, d.runEnd()
		raw := d.s[at:end]
		if i := strings.Index(raw, "]]>"); i >= 0 {
			return "", d.fail(at+i, `"]]>" in character data`)
		}
		plain = plain && strings.IndexByte(raw, '&') < 0 && strings.IndexByte(raw, '\r') < 0
		if err := d.appendText(raw, at, true); err != nil {
			return "", err
		}
		d.pos = end
		switch rest := d.s[end:]; {
		case strings.HasPrefix(rest, "<![CDATA["):
			stop := strings.Index(rest, "]]>")
			if stop < 0 {
				return "", d.fail(end, "unexpected end of input in <%s>", elem)
			}
			_ = d.appendText(rest[len("<![CDATA["):stop], end, false) // fails only on references
			d.pos, plain = end+stop+3, false
		case strings.HasPrefix(rest, "<!--"):
			if err := d.comment(); err != nil {
				return "", err
			}
			plain = false
		default:
			text := d.s[start:end]
			if !plain {
				text = string(d.buf)
			}
			return text, d.children(elem, false, nil)
		}
	}
}
