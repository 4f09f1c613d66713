package xmi

import (
	"path/filepath"
	"strings"
	"testing"

	"prophet/internal/uml"
)

// buildSample constructs the paper's Figure 7 sample model.
func buildSample(t *testing.T) *uml.Model {
	t.Helper()
	m := uml.NewModel("sample")
	m.AddVariable(uml.Variable{Name: "GV", Type: "double", Scope: uml.ScopeGlobal})
	m.AddVariable(uml.Variable{Name: "P", Type: "double", Scope: uml.ScopeGlobal})
	m.AddVariable(uml.Variable{Name: "tmp", Type: "int", Scope: uml.ScopeLocal, Init: "0"})
	m.AddFunction(uml.Function{Name: "FA1", Body: "2*P"})
	m.AddFunction(uml.Function{Name: "FSA2", Params: []uml.Param{{Name: "pid", Type: "int"}}, Body: "pid+1"})

	main, _ := m.AddDiagram("main")
	ini, _ := m.AddControl(main, "", uml.KindInitial)
	a1, _ := m.AddAction(main, "", "A1")
	a1.SetStereotype("action+")
	a1.SetCostFunc("FA1()")
	a1.SetCode("GV = 10;\nP = 4;")
	a1.SetTag("id", "1")
	a1.SetTag("type", "CPU")
	a1.AddConstraint("time >= 0")
	dec, _ := m.AddControl(main, "", uml.KindDecision)
	sa, _ := m.AddActivity(main, "", "SA", "SA")
	sa.SetStereotype("activity+")
	a2, _ := m.AddAction(main, "", "A2")
	a2.SetStereotype("action+")
	a2.SetCostFunc("FA1()")
	fin, _ := m.AddControl(main, "", uml.KindFinal)
	main.Connect(ini.ID(), a1.ID(), "")
	main.Connect(a1.ID(), dec.ID(), "")
	e, _ := main.Connect(dec.ID(), sa.ID(), "GV > 0")
	e.SetWeight(0.7)
	e.SetTag("prob", "0.7")
	main.Connect(dec.ID(), a2.ID(), "else")
	main.Connect(sa.ID(), fin.ID(), "")
	main.Connect(a2.ID(), fin.ID(), "")

	sub, _ := m.AddDiagram("SA")
	si, _ := m.AddControl(sub, "", uml.KindInitial)
	sa2, _ := m.AddAction(sub, "", "SA2")
	sa2.SetStereotype("action+")
	sa2.SetCostFunc("FSA2(pid)")
	lp, _ := m.AddLoop(sub, "", "L", "M", "SA") // self-referencing body for structure test
	lp.SetVar("i")
	sf, _ := m.AddControl(sub, "", uml.KindFinal)
	sub.Connect(si.ID(), sa2.ID(), "")
	sub.Connect(sa2.ID(), lp.ID(), "")
	sub.Connect(lp.ID(), sf.ID(), "")
	return m
}

// modelsEquivalent compares two models structurally.
func modelsEquivalent(t *testing.T, a, b *uml.Model) {
	t.Helper()
	if a.Name() != b.Name() {
		t.Errorf("names differ: %q vs %q", a.Name(), b.Name())
	}
	if a.MainName() != b.MainName() {
		t.Errorf("main diagram differs: %q vs %q", a.MainName(), b.MainName())
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	av, bv := a.Variables(), b.Variables()
	for i := range av {
		if av[i] != bv[i] {
			t.Errorf("variable %d differs: %+v vs %+v", i, av[i], bv[i])
		}
	}
	af, bf := a.Functions(), b.Functions()
	for i := range af {
		if af[i].Name != bf[i].Name || af[i].Body != bf[i].Body ||
			len(af[i].Params) != len(bf[i].Params) {
			t.Errorf("function %d differs", i)
		}
	}
	for di, ad := range a.Diagrams() {
		bd := b.Diagrams()[di]
		if ad.Name() != bd.Name() {
			t.Errorf("diagram %d name differs", di)
		}
		for ni, an := range ad.Nodes() {
			bn := bd.Nodes()[ni]
			if an.ID() != bn.ID() || an.Kind() != bn.Kind() ||
				an.Stereotype() != bn.Stereotype() {
				t.Errorf("node %s differs: %v/%v", an.ID(), an.Kind(), bn.Kind())
			}
			if len(an.Tags()) != len(bn.Tags()) {
				t.Errorf("node %s tag count differs", an.ID())
			} else {
				for i, tv := range an.Tags() {
					if bn.Tags()[i] != tv {
						t.Errorf("node %s tag %d differs", an.ID(), i)
					}
				}
			}
			if len(an.Constraints()) != len(bn.Constraints()) {
				t.Errorf("node %s constraints differ", an.ID())
			}
			switch x := an.(type) {
			case *uml.ActionNode:
				y := bn.(*uml.ActionNode)
				if x.Code() != y.Code() || x.CostFunc() != y.CostFunc() {
					t.Errorf("action %s payload differs: %q/%q %q/%q", x.ID(), x.Code(), y.Code(), x.CostFunc(), y.CostFunc())
				}
			case *uml.ActivityNode:
				y := bn.(*uml.ActivityNode)
				if x.Body() != y.Body() {
					t.Errorf("activity %s body differs", x.ID())
				}
			case *uml.LoopNode:
				y := bn.(*uml.LoopNode)
				if x.Count() != y.Count() || x.Body() != y.Body() || x.Var() != y.Var() {
					t.Errorf("loop %s differs", x.ID())
				}
			}
		}
		for ei, ae := range ad.Edges() {
			be := bd.Edges()[ei]
			if ae.From() != be.From() || ae.To() != be.To() ||
				ae.Guard() != be.Guard() || ae.Weight() != be.Weight() {
				t.Errorf("edge %d differs", ei)
			}
		}
	}
}

func TestRoundTripString(t *testing.T) {
	m := buildSample(t)
	s, err := EncodeString(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s, "<?xml") {
		t.Errorf("missing XML header")
	}
	got, err := DecodeString(s)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, s)
	}
	modelsEquivalent(t, m, got)
}

func TestRoundTripFile(t *testing.T) {
	m := buildSample(t)
	path := filepath.Join(t.TempDir(), "sample.xml")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
}

func TestEncodeIsDeterministic(t *testing.T) {
	m := buildSample(t)
	s1, _ := EncodeString(m)
	s2, _ := EncodeString(m)
	if s1 != s2 {
		t.Error("encoding the same model twice should be byte-identical")
	}
}

func TestDoubleRoundTripFixedPoint(t *testing.T) {
	m := buildSample(t)
	s1, err := EncodeString(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeString(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := EncodeString(m2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("encode/decode/encode is not a fixed point:\n%s\n----\n%s", s1, s2)
	}
}

func TestCodeFragmentSurvivesSpecialChars(t *testing.T) {
	m := uml.NewModel("x")
	d, _ := m.AddDiagram("main")
	a, _ := m.AddAction(d, "", "A")
	a.SetCode("if (a < b && c > 0) { x = \"s\"; }\n\ttab")
	s, err := EncodeString(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	ga := got.Main().Nodes()[0].(*uml.ActionNode)
	if ga.Code() != a.Code() {
		t.Errorf("code fragment mangled: %q vs %q", ga.Code(), a.Code())
	}
}

func TestGuardExpressionEscaping(t *testing.T) {
	m := uml.NewModel("x")
	d, _ := m.AddDiagram("main")
	a, _ := m.AddAction(d, "", "A")
	b, _ := m.AddAction(d, "", "B")
	d.Connect(a.ID(), b.ID(), `GV > 0 && P < 16`)
	s, _ := EncodeString(m)
	got, err := DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Main().Edges()[0].Guard() != `GV > 0 && P < 16` {
		t.Errorf("guard mangled: %q", got.Main().Edges()[0].Guard())
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":      "this is not xml",
		"unknown kind": `<model name="m"><diagram id="d1" name="main"><node id="n1" kind="Martian"/></diagram></model>`,
		"bad edge":     `<model name="m"><diagram id="d1" name="main"><node id="n1" kind="Action" name="A"/><edge from="n1" to="ghost"/></diagram></model>`,
		"dup diagram":  `<model name="m"><diagram id="d1" name="main"/><diagram id="d2" name="main"/></model>`,
		"dup node id":  `<model name="m"><diagram id="d1" name="main"><node id="n1" kind="Action" name="A"/><node id="n1" kind="Action" name="B"/></diagram></model>`,
		"bad main":     `<model name="m" main="ghost"><diagram id="d1" name="main"/></model>`,
		"bad scope":    `<model name="m"><variable name="x" type="double" scope="cosmic"/></model>`,
		"dup variable": `<model name="m"><variable name="x" type="double" scope="global"/><variable name="x" type="double" scope="global"/></model>`,
		"dup function": `<model name="m"><function name="f" body="1"/><function name="f" body="2"/></model>`,
	}
	for name, src := range cases {
		if _, err := DecodeString(src); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

func TestDecodeMinimal(t *testing.T) {
	m, err := DecodeString(`<model name="tiny"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "tiny" || len(m.Diagrams()) != 0 {
		t.Errorf("minimal model wrong: %+v", m.Stats())
	}
}

func TestDecodeDefaultScopeIsGlobal(t *testing.T) {
	m, err := DecodeString(`<model name="m"><variable name="x" type="int"/></model>`)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m.Variable("x")
	if !ok || v.Scope != uml.ScopeGlobal {
		t.Errorf("unspecified scope should default to global: %+v", v)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.xml")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestControlNodeNamesNotPersisted(t *testing.T) {
	m := uml.NewModel("m")
	d, _ := m.AddDiagram("main")
	m.AddControl(d, "", uml.KindInitial)
	s, _ := EncodeString(m)
	if strings.Contains(s, `name="InitialNode"`) {
		t.Errorf("synthetic control names should not be persisted:\n%s", s)
	}
	got, err := DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Main().Initial() == nil {
		t.Error("initial node lost in round trip")
	}
}
