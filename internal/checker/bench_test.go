package checker

import (
	"testing"

	"prophet/internal/modelgen"
)

// BenchmarkCheck is one full check of a 2.5k-node modelgen model, the
// size of a mid-band perfbench transform model. It walks through
// CheckCounted: Check would answer every call after the first from the
// model's memo.
func BenchmarkCheck(b *testing.B) {
	m, err := modelgen.Generate(modelgen.Params{Seed: 1, Nodes: 2500})
	if err != nil {
		b.Fatal(err)
	}
	chk := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, _ := chk.CheckCounted(m); len(rep.Diagnostics) > 0 {
			b.Fatalf("modelgen model has diagnostics: %v", rep.Diagnostics[0])
		}
	}
}
