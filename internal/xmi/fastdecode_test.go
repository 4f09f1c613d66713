package xmi

import (
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prophet/internal/diff"
	"prophet/internal/samples"
)

// stdlibDecode is the reference path: the reflection-based decoder the
// fast scanner must be observationally identical to.
func stdlibDecode(t *testing.T, src string) (*xmlModel, error) {
	t.Helper()
	var doc xmlModel
	if err := xml.NewDecoder(strings.NewReader(src)).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// TestFastDecodeMatchesStdlib runs the fast scanner and the stdlib decoder
// over every document we can get our hands on — samples, the committed
// corpus, and handwritten edge cases — and requires that whenever the fast
// path accepts, its model is structurally identical to the stdlib's.
func TestFastDecodeMatchesStdlib(t *testing.T) {
	var docs []string
	if s, err := EncodeString(samples.Sample()); err == nil {
		docs = append(docs, s)
	}
	if s, err := EncodeString(samples.Jacobi()); err == nil {
		docs = append(docs, s)
	}
	corpus, _ := filepath.Glob(filepath.Join("..", "..", "conformance", "corpus", "*.xmi"))
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(b))
	}
	docs = append(docs,
		// Self-closing forms, single quotes, attribute order, escapes.
		`<model name="m" main="main"><diagram id="d" name="main"/></model>`,
		`<model name='m'><diagram name='n' id='d'><node kind='Action' id='a' name='A &amp; B'/></diagram></model>`,
		`<model name="m"><diagram id="d" name="n"><node id="a" kind="Action" name="x &lt; 1 &gt; 0 &quot;q&quot; &apos;a&apos;"/></diagram></model>`,
		`<model name="m"><diagram id="d" name="n"><node id="a" kind="Action" name="&#65;&#x42;"/></diagram></model>`,
		"<model name=\"m\">\r\n  <diagram id=\"d\" name=\"n\">\t</diagram>\r\n</model>",
		`<?xml version="1.0"?><!-- pre --><model name="m"></model>`,
		`<model name="m"><variable name="x" type="double" scope="global" init="0.5"></variable></model>`,
		`<model name="m"><function name="f" type="double" body="a+b"><param name="a" type="double"/><param name="b" type="double"/></function></model>`,
		`<model name="m"><diagram id="d" name="n"><node id="a" kind="Action"><code>x = x + 1;</code><tag name="time" value="3"/><constraint>x &gt; 0</constraint></node><edge from="a" to="a" guard="x &lt; 2" weight="0.25"><tag name="p" value="q"/><constraint>c1</constraint></edge></diagram></model>`,
		`<model name="m"><diagram id="d" name="n"><node id="a" kind="LoopNode" count="3" var="i" body="sub" stereotype="loop+" costfunc="c"/></diagram></model>`,
		`<model name="m"><diagram id="d" name="n"><node id="a" kind="Action"/><node id="b" kind="Action"/><edge from="a" to="b" weight="1e-3"/></diagram></model>`,
	)
	fastHits := 0
	for i, src := range docs {
		fast, ferr := fastDecode(src)
		ref, rerr := stdlibDecode(t, src)
		if ferr != nil {
			// Fast path declined: Decode falls back, so only the stdlib
			// result matters. Nothing to compare.
			continue
		}
		fastHits++
		if rerr != nil {
			t.Errorf("doc %d: fast path accepted a document the stdlib rejects: %v\n%s", i, rerr, src)
			continue
		}
		fm, err := fromXML(fast)
		if err != nil {
			t.Errorf("doc %d: fast fromXML: %v", i, err)
			continue
		}
		rm, err := fromXML(ref)
		if err != nil {
			t.Errorf("doc %d: stdlib fromXML: %v", i, err)
			continue
		}
		if changes := diff.Models(fm, rm); len(changes) > 0 {
			t.Errorf("doc %d: fast and stdlib decodes differ: %v\n%s", i, changes, src)
		}
		fe, err1 := EncodeString(fm)
		re, err2 := EncodeString(rm)
		if err1 != nil || err2 != nil || fe != re {
			t.Errorf("doc %d: re-encodings differ (err1=%v err2=%v)", i, err1, err2)
		}
	}
	// The whole point of the fast path is that it handles our own dialect:
	// every sample and corpus document must take it.
	if want := 2 + len(corpus); fastHits < want {
		t.Errorf("fast path handled %d/%d canonical documents; it must cover all of them", fastHits, want+9)
	}
}

// TestFastDecodeFallsBack lists constructs outside the fast subset; each
// must be declined (errFallback) so stdlib semantics govern, and each must
// still produce the stdlib outcome through the public Decode.
func TestFastDecodeFallsBack(t *testing.T) {
	cases := []string{
		`<model name="m" xmlns="urn:x"></model>`,                          // namespace attr is unknown
		`<model name="m"><unknown/></model>`,                              // unknown element
		`<model name="m" extra="1"></model>`,                              // unknown attribute
		`<model name="m"><diagram id="d" name="n">text</diagram></model>`, // stray chardata
		`<model name="m"><![CDATA[x]]></model>`,                           // CDATA
		`<model name="m"><diagram id="d" name="n"><node id="a" kind="Action"><code>a<!-- c -->b</code></node></diagram></model>`, // comment in text
		`<model name="m">&#1;</model>`, // invalid char ref
		`<model name="m">café</model>`, // non-ASCII bytes
		`<model name="m"></Model>`,     // case-mismatched close
		`<model name="m"><diagram id="d" name="n"><edge from="a" to="b" weight="x"/></diagram></model>`, // bad float
		`<model`, // truncated
		``,       // empty
	}
	for i, src := range cases {
		if _, err := fastDecode(src); err == nil {
			t.Errorf("case %d: fast path accepted %q, want fallback", i, src)
		}
		// Public Decode must agree with the pure stdlib path on both
		// outcome and, when accepted, structure.
		pub, perr := DecodeString(src)
		ref, rerr := stdlibDecode(t, src)
		if (perr == nil) != (rerr == nil) {
			t.Errorf("case %d: Decode err=%v, stdlib err=%v", i, perr, rerr)
			continue
		}
		if perr == nil {
			rm, err := fromXML(ref)
			if err != nil {
				continue
			}
			if changes := diff.Models(pub, rm); len(changes) > 0 {
				t.Errorf("case %d: Decode differs from stdlib: %v", i, changes)
			}
		}
	}
}
