package xmi

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prophet/internal/diff"
	"prophet/internal/samples"
	"prophet/internal/uml"
)

// sameModel reports the structural differences between a and b, reading
// NaN weights as equal.
func sameModel(a, b *uml.Model) []diff.Change {
	var out []diff.Change
	for _, c := range diff.Models(a, b) {
		if !strings.HasSuffix(c.Detail, "weight: NaN -> NaN") {
			out = append(out, c)
		}
	}
	return out
}

// agree decodes src with Decode and with the encoding/xml reference and
// returns how the two may not differ:
//   - a document Decode accepts, the reference accepts, as an equal model
//     that encodes to the same bytes under both encoders;
//   - a document Decode refuses with a model error, the reference refuses;
//   - a document only the reference accepts is refused with a
//     *SyntaxError, one of the documented refusal classes.
func agree(src string) error {
	m, err := DecodeString(src)
	ref, refSyntax, refModel := refDecode(src)
	var se *SyntaxError
	switch {
	case err == nil && (refSyntax != nil || refModel != nil):
		return fmt.Errorf("accepted a document the reference refuses (%v%v)", refSyntax, refModel)
	case err == nil:
		if changes := sameModel(m, ref); len(changes) > 0 {
			return fmt.Errorf("decodes differ from the reference: %v", changes)
		}
		enc, err := EncodeString(m)
		if err != nil {
			return err
		}
		refEnc, err := refEncode(m)
		if err != nil {
			return err
		}
		if enc != refEnc {
			return fmt.Errorf("encodings differ:\nwriter:    %q\nreference: %q", enc, refEnc)
		}
	case errors.As(err, &se):
		if len(se.Msg) > 3*64 {
			return fmt.Errorf("refusal text too long: %q", se.Msg)
		}
	case refSyntax == nil && refModel == nil:
		return fmt.Errorf("model error %q on a document the reference accepts", err)
	}
	return nil
}

// referenceCorpus is every committed document: the samples, the
// conformance corpus and the golden models.
func referenceCorpus(t testing.TB) []string {
	var docs []string
	for _, m := range []*uml.Model{samples.Sample(), samples.Jacobi(), samples.Kernel6(), samples.Pipeline(4)} {
		s, err := EncodeString(m)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, s)
	}
	for _, pattern := range []string{"../../testdata/corpus/*.xml", "../../testdata/golden/*/model.xml"} {
		paths, _ := filepath.Glob(pattern)
		if len(paths) == 0 {
			t.Fatalf("%s matches nothing", pattern)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(b), HashPrefix) { // digest-only golden
				docs = append(docs, string(b))
			}
		}
	}
	return docs
}

// accepted lists documents outside the canonical form that both decoders
// read, with the model Decode must build from each.
var accepted = []struct {
	name, src string
	check     func(*uml.Model) string // describes the model's payload
}{
	{"non-ASCII name", `<model name="café"/>`, modelName},
	{"BOM and declaration", "\uFEFF<?xml version='1.0' encoding='utf-8' standalone=\"yes\"?>\n<model name=\"m\"/>", modelName},
	{"prolog comments and PI", `<!-- a --><?app data?><model name="m"/><!-- b -->` + "\n", modelName},
	{"entities", `<model name="&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#x1F600;"/>`, modelName},
	{"single quotes", `<model name='a"b'/>`, modelName},
	{"CR LF", "<model name=\"a\r\nb\rc&#xD;\"/>", modelName},
	{"CDATA in code", `<model name="m"><diagram name="d"><node id="a" kind="Action"><code><![CDATA[a < b && c]]></code></node></diagram></model>`, firstCode},
	{"comments in code", `<model name="m"><diagram name="d"><node id="a" kind="Action"><code>a<!-- c -->b&amp;<![CDATA[&]]></code></node></diagram></model>`, firstCode},
	{"CR LF in code", "<model name=\"m\"><diagram name=\"d\"><node id=\"a\" kind=\"Action\"><code>a\r\nb<![CDATA[\r]]></code></node></diagram></model>", firstCode},
	{"edge before its nodes", `<model name="m"><diagram name="d"><edge from="a" to="b" weight=" 0.5 "><constraint>c</constraint><tag name="t" value="v"/></edge><node id="a" kind="Action"/><node id="b" kind="FinalNode"/></diagram></model>`, firstEdge},
	{"children in any order", `<model name="m"><diagram name="d"><node id="a" kind="Action"><constraint>c1</constraint><tag name="t" value="1"/><code>x</code><constraint>c2</constraint></node></diagram><variable name="v"/><function name="f" body="1"/></model>`, firstCode},
	{"empty weight", `<model name="m"><diagram name="d"><node id="a" kind="Action"/><edge from="a" to="a" weight=""/></diagram></model>`, firstEdge},
	{"white space in tags", "<model\n name = \"m\"\t></model >", modelName},
}

func modelName(m *uml.Model) string { return m.Name() }

func firstCode(m *uml.Model) string {
	n := m.Diagrams()[0].Nodes()[0]
	return fmt.Sprintf("%q %v %v", n.(*uml.ActionNode).Code(), n.Tags(), n.Constraints())
}

func firstEdge(m *uml.Model) string {
	e := m.Diagrams()[0].Edges()[0]
	return fmt.Sprintf("%s->%s %g %v %v", e.From(), e.To(), e.Weight(), e.Tags(), e.Constraints())
}

// TestDecodeMatchesReference holds Decode and Encode to the encoding/xml
// reference over every committed document, the accepted non-canonical
// forms and seeded random models.
func TestDecodeMatchesReference(t *testing.T) {
	docs := referenceCorpus(t)
	for _, c := range accepted {
		docs = append(docs, c.src)
	}
	for seed := int64(0); seed < 200; seed++ {
		s, err := EncodeString(randomModel(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, s)
	}
	for i, src := range docs {
		if _, err := DecodeString(src); err != nil {
			t.Errorf("doc %d: %v\n%.200s", i, err, src)
		}
		if err := agree(src); err != nil {
			t.Errorf("doc %d: %v\n%.200s", i, err, src)
		}
	}
}

func TestDecodeAccepts(t *testing.T) {
	want := map[string]string{
		"non-ASCII name":         "café",
		"BOM and declaration":    "m",
		"prolog comments and PI": "m",
		"entities":               `<>&"'AB😀`,
		"single quotes":          `a"b`,
		"CR LF":                  "a\nb\nc\r",
		"CDATA in code":          `"a < b && c" [] []`,
		"comments in code":       `"ab&&" [] []`,
		"CR LF in code":          `"a\nb\n" [] []`,
		"edge before its nodes":  "a->b 0.5 [{t v}] [c]",
		"children in any order":  `"x" [{t 1}] [c1 c2]`,
		"empty weight":           "a->a 0 [] []",
		"white space in tags":    "m",
	}
	for _, c := range accepted {
		m, err := DecodeString(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := c.check(m); got != want[c.name] {
			t.Errorf("%s: got %q, want %q", c.name, got, want[c.name])
		}
	}
}

// TestDecodeRefusals pins one document and its error text per refusal
// class. refAccepts records whether encoding/xml reads the document: the
// cases it accepts are the ones where it silently drops or rewrites
// input.
func TestDecodeRefusals(t *testing.T) {
	const node = `<model name="m"><diagram name="d"><node id="a" kind="Action"`
	long := strings.Repeat("x", 200)
	cases := []struct {
		src, want  string
		refAccepts bool
	}{
		{node + ` costFunc="5"/></diagram></model>`, `line 1: unknown attribute "costFunc" on <node>`, true},
		{`<model name="m"><diagram name="d"><tpyo/></diagram></model>`, `line 1: unknown element <tpyo> in <diagram>`, true},
		{`<model name="m"><` + long + `/></model>`, `line 1: unknown element <` + long[:64] + `> in <model>`, true},
		{node + `><code>a</code><code>b</code></node></diagram></model>`, `line 1: duplicate <code> in <node>`, true},
		{`<model name="m" name="n"/>`, `line 1: duplicate attribute "name" on <model>`, true},
		{`<model name="m"><diagram name="d">text</diagram></model>`, `line 1: character data "text" in <diagram>`, true},
		{`<model name="m"><variable name="v">` + long + `</variable></model>`, `line 1: character data "` + long[:64] + `" in <variable>`, true},
		{`junk<model name="m"/>`, `line 1: character data "junk" before <model>`, true},
		{`<model name="m"><![CDATA[ ]]></model>`, `line 1: CDATA section outside <code> and <constraint>`, true},
		{"<!DOCTYPE model>\n<model name=\"m\"/>", `line 1: DOCTYPE or other declaration "<!DOCTYPE model>\n<model name=\"m\"/>"`, true},
		{"<model name=\"m\">\n<?pi x?></model>", `line 2: processing instruction after the prolog`, true},
		{`<x:model name="m"/>`, `line 1: prefixed name "x:model"`, true},
		{`<model x:name="m"/>`, `line 1: prefixed name "x:name"`, true},
		{`<model name="m" xmlns="urn:x"/>`, `line 1: unknown attribute "xmlns" on <model>`, true},
		{`<model name="m" xmlns:x="urn:x"/>`, `line 1: prefixed name "xmlns:x"`, true},
		{`<?xml version="1.1"?><model name="m"/>`, `line 1: malformed XML declaration`, false},
		{`<model name="m"><!-- a -- b --></model>`, `line 1: malformed comment`, false},
		{`<model name="&#1;"/>`, `line 1: invalid entity or character reference "&#1;"`, false},
		{`<model name="&#X41;"/>`, `line 1: invalid entity or character reference "&#X41;"`, false},
		{`<model name="&nbsp;"/>`, `line 1: invalid entity or character reference "&nbsp;"`, false},
		{`<model name="&#xD800;"/>`, `line 1: invalid entity or character reference "&#xD800;"`, true},
		{`<model name="a<b"/>`, `line 1: '<' in attribute value`, false},
		{node + `><code>a]]>b</code></node></diagram></model>`, `line 1: "]]>" in character data`, false},
		{`<model name="m"><diagram name="d"><edge from="a" to="b" weight="x"/></diagram></model>`, `line 1: malformed number "x" for weight`, false},
		{`<model name=m/>`, `line 1: malformed tag: expected a quoted value for attribute "name"`, false},
		{`<Model name="m"/>`, `line 1: root element <Model>, want <model>`, false},
		{`<model name="m"></Model>`, `line 1: end tag </Model> does not close <model>`, false},
		{`<model name="m"><diagram name="d">`, `line 1: unexpected end of input in <diagram>`, false},
		{`<model`, `line 1: unexpected end of input in <model>`, false},
		{``, `line 1: unexpected end of input before <model>`, false},
		{`<model name="m"/>x`, `line 1: trailing bytes after </model>`, true},
		{`<model name="m"/><model name="n"/>`, `line 1: trailing bytes after </model>`, true},
		{"<model name=\"\xff\"/>", `line 1: invalid UTF-8`, false},
		{"<model name=\"m\"><!-- \x01 --></model>", `line 1: illegal character U+0001`, true},
	}
	for _, c := range cases {
		_, err := DecodeString(c.src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: got %v, want a *SyntaxError", c.src, err)
			continue
		}
		if want := "xmi: decode: " + c.want; err.Error() != want {
			t.Errorf("%q:\n got %q\nwant %q", c.src, err, want)
		}
		_, refSyntax, refModel := refDecode(c.src)
		if got := refSyntax == nil && refModel == nil; got != c.refAccepts {
			t.Errorf("%q: reference accepts = %v, want %v (%v%v)", c.src, got, c.refAccepts, refSyntax, refModel)
		}
	}
}

// FuzzDecodeReference is TestDecodeMatchesReference over arbitrary
// bytes.
func FuzzDecodeReference(f *testing.F) {
	for _, s := range referenceCorpus(f) {
		if len(s) < 4<<10 {
			f.Add(s)
		}
	}
	for _, c := range accepted {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := agree(src); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHashStreamsTheEncoding(t *testing.T) {
	m := samples.Jacobi()
	s, err := EncodeString(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Hash(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := HashBytes([]byte(s)); got != want {
		t.Errorf("Hash = %s, want %s", got, want)
	}
}
