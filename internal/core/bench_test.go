package core

import (
	"testing"

	"prophet/internal/modelgen"
	"prophet/internal/xmi"
)

// BenchmarkTransformOp is one cold pipeline op on a 2.5k-node generated
// model: decode the XMI, Check, TransformCpp, TransformGo and Estimate
// (with its own check). The three checks share one report and the two
// generators one region tree per diagram, through the model's memo.
func BenchmarkTransformOp(b *testing.B) {
	m, err := modelgen.Generate(modelgen.Params{Seed: 7, Nodes: 2500})
	if err != nil {
		b.Fatal(err)
	}
	doc, err := xmi.EncodeString(m)
	if err != nil {
		b.Fatal(err)
	}
	p := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := xmi.DecodeString(doc)
		if err != nil {
			b.Fatal(err)
		}
		if rep := p.Check(m); rep.HasErrors() {
			b.Fatalf("generated model has errors: %v", rep.Diagnostics)
		}
		if _, err := p.TransformCpp(m); err != nil {
			b.Fatal(err)
		}
		if _, err := p.TransformGo(m); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Estimate(Request{Model: m}); err != nil {
			b.Fatal(err)
		}
	}
}
