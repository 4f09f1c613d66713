package uml

import (
	"testing"
)

func TestCloneIsDeep(t *testing.T) {
	orig := buildSampleModel(t)
	cp := Clone(orig)

	// Same shape.
	if cp.Stats() != orig.Stats() {
		t.Fatalf("clone stats %+v != original %+v", cp.Stats(), orig.Stats())
	}
	if cp.MainName() != orig.MainName() {
		t.Errorf("main diagram name not preserved")
	}

	// IDs preserved, so cross-references stay valid.
	for _, d := range orig.Diagrams() {
		cd := cp.DiagramByName(d.Name())
		if cd == nil {
			t.Fatalf("clone missing diagram %q", d.Name())
		}
		for _, n := range d.Nodes() {
			cn := cd.Node(n.ID())
			if cn == nil {
				t.Fatalf("clone missing node %q", n.ID())
			}
			if cn.Name() != n.Name() || cn.Kind() != n.Kind() || cn.Stereotype() != n.Stereotype() {
				t.Errorf("node %q not faithfully cloned", n.ID())
			}
		}
		if len(cd.Edges()) != len(d.Edges()) {
			t.Errorf("diagram %q: edge count differs", d.Name())
		}
	}

	// Mutating the clone must not affect the original.
	cd := cp.Main()
	a1 := cd.NodeByName("A1").(*ActionNode)
	a1.SetName("renamed")
	a1.SetTag("time", "42")
	a1.SetCostFunc("FX()")
	oa1 := orig.Main().NodeByName("A1")
	if oa1 == nil {
		t.Fatal("original lost its A1 after clone mutation")
	}
	if _, ok := oa1.Tag("time"); ok {
		t.Errorf("tag mutation leaked into original")
	}
	if oa1.(*ActionNode).CostFunc() != "FA1()" {
		t.Errorf("cost function mutation leaked into original")
	}

	// Variables and functions copied.
	if len(cp.Variables()) != len(orig.Variables()) {
		t.Errorf("variables not copied")
	}
	if len(cp.Functions()) != len(orig.Functions()) {
		t.Errorf("functions not copied")
	}
}

func TestClonePreservesActivityBodiesAndLoops(t *testing.T) {
	m := NewModel("loops")
	main, _ := m.AddDiagram("main")
	body, _ := m.AddDiagram("body")
	lp, _ := m.AddLoop(main, "", "L", "M", "body")
	lp.SetVar("i")
	lp.SetStereotype("loop+")
	k, _ := m.AddAction(body, "", "K")
	k.SetCode("W(i) = W(i) + B(i,k)*W(i-k)")

	cp := Clone(m)
	cl := cp.Main().NodeByName("L").(*LoopNode)
	if cl.Count() != "M" || cl.Body() != "body" || cl.Var() != "i" {
		t.Errorf("loop fields not cloned: %+v", cl)
	}
	if cl.Stereotype() != "loop+" {
		t.Errorf("loop stereotype not cloned")
	}
	ck := cp.DiagramByName("body").NodeByName("K").(*ActionNode)
	if ck.Code() != k.Code() {
		t.Errorf("action code not cloned")
	}
}

func TestClonePreservesEdgeAnnotations(t *testing.T) {
	m := NewModel("edges")
	d, _ := m.AddDiagram("main")
	a, _ := m.AddAction(d, "", "A")
	b, _ := m.AddAction(d, "", "B")
	e, _ := d.Connect(a.ID(), b.ID(), "GV > 0")
	e.SetWeight(0.25)
	e.SetTag("prob", "0.25")

	cp := Clone(m)
	ce := cp.Main().Edges()[0]
	if ce.Guard() != "GV > 0" || ce.Weight() != 0.25 {
		t.Errorf("edge guard/weight not cloned: %+v", ce)
	}
	if v, ok := ce.Tag("prob"); !ok || v != "0.25" {
		t.Errorf("edge tags not cloned")
	}
}
