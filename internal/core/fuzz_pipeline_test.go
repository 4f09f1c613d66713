package core

import (
	"errors"
	"go/parser"
	"go/token"
	"slices"
	"testing"

	"prophet/internal/checker"
	"prophet/internal/cppgen"
	"prophet/internal/samples"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// FuzzPipeline hardens the whole pipeline against arbitrary model XML:
// whatever the decoder accepts must flow through the checker, both code
// generators and the simulator without panicking. Models the checker
// rejects stop there (rejection is the correct outcome, not a bug). Of
// the rest, accepted C++ must pass cppgen.ValidateStructure, accepted Go
// must parse, and a structural refusal (a uml.FlowError from the shared
// region tree) from one generator must be the same refusal from the
// other. The report Check keeps in the model's memo must equal an
// uncached walk, before and after the rest of the pipeline has read the
// model. The committed seeds under testdata/fuzz/FuzzPipeline cover
// malformed tags, cyclic flows and NaN/Inf execution times.
func FuzzPipeline(f *testing.F) {
	if s, err := xmi.EncodeString(samples.Sample()); err == nil {
		f.Add(s)
	}
	f.Add(`<model name="m" main="main"><diagram id="d" name="main">` +
		`<node id="a" kind="InitialNode" name="initial"/>` +
		`<node id="b" kind="Action" name="A" stereotype="action+"><tag name="time" value="1e309"/></node>` +
		`<node id="c" kind="FinalNode" name="final"/>` +
		`<edge from="a" to="b"/><edge from="b" to="c"/></diagram></model>`)
	f.Add(`<model name="m" main="main"><diagram id="d" name="main">` +
		`<node id="a" kind="Action" name="A" stereotype="action+"/>` +
		`<edge from="a" to="a"/></diagram></model>`)
	f.Add(`<model name="m"><diagram id="d" name="main">` +
		`<node id="a" kind="LoopNode" name="L" body="main" count="processes"/></diagram></model>`)

	f.Fuzz(func(t *testing.T, src string) {
		m, err := xmi.DecodeString(src)
		if err != nil {
			return
		}
		p := New()
		rep := p.Check(m)
		uncached, _ := checker.New().CheckCounted(m)
		if !slices.Equal(rep.Diagnostics, uncached.Diagnostics) {
			t.Fatalf("memoized report differs from an uncached walk:\n%v\n%v", rep.Diagnostics, uncached.Diagnostics)
		}
		if rep.HasErrors() {
			return
		}
		cpp, cppErr := p.TransformCpp(m)
		if cppErr == nil {
			if err := cppgen.ValidateStructure(cpp); err != nil {
				t.Fatalf("accepted C++ is malformed: %v\n%s", err, cpp)
			}
		}
		goSrc, goErr := p.TransformGo(m)
		if goErr == nil {
			if _, err := parser.ParseFile(token.NewFileSet(), "model.go", goSrc, 0); err != nil {
				t.Fatalf("accepted Go does not parse: %v\n%s", err, goSrc)
			}
		}
		// Both generators fold the same region tree in the same order, so
		// a structural defect stops both, unless one of them first fails
		// to render something earlier in the flow (gogen has no ternary).
		var cppFlow, goFlow *uml.FlowError
		cppStruct, goStruct := errors.As(cppErr, &cppFlow), errors.As(goErr, &goFlow)
		switch {
		case cppStruct && goErr == nil:
			t.Fatalf("cppgen refused structurally but gogen accepted: %v", cppErr)
		case goStruct && cppErr == nil:
			t.Fatalf("gogen refused structurally but cppgen accepted: %v", goErr)
		case cppStruct && goStruct && cppFlow.Error() != goFlow.Error():
			t.Fatalf("structural refusals differ:\n cppgen: %v\n gogen:  %v", cppErr, goErr)
		}
		// Simulate with a tight execution bound so runaway loops fail fast
		// instead of timing out the fuzzer.
		_, _ = p.Estimate(Request{Model: m, MaxSteps: 2000, SkipCheck: true})
		if again := p.Check(m); !slices.Equal(again.Diagnostics, uncached.Diagnostics) {
			t.Fatalf("memoized report changed over the pipeline:\n%v\n%v", again.Diagnostics, uncached.Diagnostics)
		}
	})
}
