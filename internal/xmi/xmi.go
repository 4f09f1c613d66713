// Package xmi persists performance models as XML, the on-disk model format
// of Teuta ("Models (XML)" in the paper's Figure 2 architecture).
//
// The format is a compact XMI-flavored dialect: one <model> document owning
// <variable>, <function> and <diagram> elements; diagrams own <node> and
// <edge> elements; stereotype applications are stored as a stereotype
// attribute plus nested <tag> elements. Encode and Decode are exact
// inverses for every well-formed model (see the round-trip tests). Decode
// reads the bytes with one scanner that builds the model as it goes;
// Encode writes the document straight from the model.
//
// # Accepted grammar
//
//	document   = [BOM] [xmldecl] (S | comment | PI)* model (S | comment)*
//	xmldecl    = <?xml version="1.0" [encoding="UTF-8"] [standalone="yes"|"no"]?>
//	model      = <model name main>           (variable | function | diagram)*
//	variable   = <variable name type scope init>
//	function   = <function name type body>   param*
//	param      = <param name type>
//	diagram    = <diagram id name>           (node | edge)*
//	node       = <node id kind name stereotype body count var costfunc>
//	                                         (code | tag | constraint)*, one code at most
//	edge       = <edge from to guard weight> (tag | constraint)*
//	tag        = <tag name value>
//	code, constraint = text: character data, CDATA sections and comments
//
// Attributes are optional, in any order, single- or double-quoted.
// Children come in any order (an edge may precede the nodes it joins),
// with white space and comments between them, and an element without
// children may self-close. Attribute values and character data resolve
// &lt; &gt; &amp; &quot; &apos; and decimal or "&#x" hexadecimal
// references to XML characters, and turn CR LF and CR into LF. The
// document is UTF-8 of XML characters. A weight is empty (zero) or what
// strconv.ParseFloat reads after trimming white space. A processing
// instruction (PI) in the prolog is skipped unless its target is "xml".
//
// # Refusals
//
// Anything else is a *SyntaxError that quotes at most 64 bytes of the
// input: invalid UTF-8; illegal character U+XXXX; unknown element <x> in
// <parent>; unknown attribute "x" on <element> (xmlns included);
// duplicate attribute "x" on <element>; duplicate <code> in <node>;
// prefixed name "x:y"; character data "..." in <parent> (or before
// <model>); CDATA section outside <code> and <constraint>; DOCTYPE or other
// declaration "<!..."; processing instruction after the prolog; malformed
// processing instruction; malformed XML declaration; malformed comment;
// invalid entity or character reference "&..."; '<' in attribute value;
// "]]>" in character data; malformed number "x" for weight; malformed tag:
// (what was expected); root element <x>, want <model>; end tag </x> does
// not close <parent>; unexpected end of input in <element> (or before
// <model>); trailing bytes after </model>. A document that parses but
// does not form a model (an unknown node kind, a duplicate id, an edge to
// a missing node, an unknown main diagram or variable scope) is refused
// with the model's error.
package xmi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"prophet/internal/uml"
)

// Encode writes the model to w as indented XML.
func Encode(w io.Writer, m *uml.Model) error {
	e := writer{w: w, buf: make([]byte, 0, chunk)}
	e.model(m)
	e.flush()
	if e.err != nil {
		return fmt.Errorf("xmi: encode model %q: %w", m.Name(), e.err)
	}
	return nil
}

// EncodeString renders the model as an XML string.
func EncodeString(m *uml.Model) (string, error) {
	var e writer
	e.model(m)
	return string(e.buf), nil
}

// Save writes the model to a file.
func Save(path string, m *uml.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("xmi: %w", err)
	}
	defer f.Close()
	if err := Encode(f, m); err != nil {
		return err
	}
	return f.Close()
}

// Decode reads a model from r.
func Decode(r io.Reader) (*uml.Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmi: decode: %w", err)
	}
	return decode(string(data))
}

// DecodeString parses a model from an XML string. The model's strings
// may share memory with s.
func DecodeString(s string) (*uml.Model, error) {
	return decode(s)
}

// Load reads a model from a file.
func Load(path string) (*uml.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmi: %w", err)
	}
	defer f.Close()
	m, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("xmi: %s: %w", path, err)
	}
	return m, nil
}

// HashPrefix tags every content address produced by this package.
const HashPrefix = "sha256:"

// HashBytes returns the content address of an already-canonical XMI
// document: "sha256:" plus the hex SHA-256 of the bytes. Callers holding
// arbitrary (non-canonical) XMI text should Decode and use Hash instead,
// so that formatting differences normalize away.
func HashBytes(text []byte) string {
	sum := sha256.Sum256(text)
	return HashPrefix + hex.EncodeToString(sum[:])
}

// Hash canonicalizes m through Encode and returns the content address of
// the result. Two models with identical canonical XMI hash identically;
// any in-place mutation that changes the persisted form changes the hash.
// It is the model id of the serving layer's model store. The document is
// hashed as it is written, never held whole.
func Hash(m *uml.Model) (string, error) {
	h := sha256.New()
	if err := Encode(h, m); err != nil {
		return "", err
	}
	return HashPrefix + hex.EncodeToString(h.Sum(nil)), nil
}
