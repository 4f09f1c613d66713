package uml

import (
	"strconv"
	"testing"
)

// chainedDecisions builds one diagram of k if/else decisions in a row,
// 4k+2 nodes: initial, then per decision D, A, B and the merge M, then
// final. With a breadth-first convergence search each decision cost a
// walk of everything downstream, so the chain was quadratic.
func chainedDecisions(tb testing.TB, k int) *Diagram {
	m := NewModel("chain")
	m.AddVariable(Variable{Name: "x", Type: "double", Scope: ScopeGlobal})
	d, err := m.AddDiagram("main")
	if err != nil {
		tb.Fatal(err)
	}
	d.Reserve(4*k+2, 5*k+1)
	must := func(n Node, err error) Node {
		if err != nil {
			tb.Fatal(err)
		}
		return n
	}
	connect := func(from, to Node, guard string) {
		if _, err := d.Connect(from.ID(), to.ID(), guard); err != nil {
			tb.Fatal(err)
		}
	}
	prev := must(m.AddControl(d, "", KindInitial))
	for i := 0; i < k; i++ {
		s := strconv.Itoa(i)
		dec := must(m.AddControl(d, "", KindDecision))
		a := must(m.AddAction(d, "", "A"+s))
		b := must(m.AddAction(d, "", "B"+s))
		mer := must(m.AddControl(d, "", KindMerge))
		connect(prev, dec, "")
		connect(dec, a, "x > "+s)
		connect(dec, b, "else")
		connect(a, mer, "")
		connect(b, mer, "")
		prev = mer
	}
	connect(prev, must(m.AddControl(d, "", KindFinal)), "")
	return d
}

// BenchmarkRegionsChained builds the region tree of 1,999 chained
// decisions (7,998 nodes) from a cold diagram: the post-dominator pass
// and the walk that closes every decision at its convergence node.
func BenchmarkRegionsChained(b *testing.B) {
	d := chainedDecisions(b, 1999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.model.changed()
		if r := d.Regions(); len(r.Items) != 1999 {
			b.Fatalf("%d top-level regions, want 1999", len(r.Items))
		}
	}
}
