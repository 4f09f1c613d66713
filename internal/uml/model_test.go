package uml

import (
	"strings"
	"testing"
)

func mustDiagram(t *testing.T, m *Model, name string) *Diagram {
	t.Helper()
	d, err := m.AddDiagram(name)
	if err != nil {
		t.Fatalf("AddDiagram(%q): %v", name, err)
	}
	return d
}

func TestNewModelBasics(t *testing.T) {
	m := NewModel("sample")
	if m.Name() != "sample" {
		t.Errorf("Name = %q, want sample", m.Name())
	}
	if m.Kind() != KindModel {
		t.Errorf("Kind = %v, want KindModel", m.Kind())
	}
	if m.Main() != nil {
		t.Errorf("Main of empty model should be nil")
	}
	if got := m.Element("model"); got != Element(m) {
		t.Errorf("Element(model) should return the model root")
	}
}

func TestAddDiagramSetsMain(t *testing.T) {
	m := NewModel("s")
	d1 := mustDiagram(t, m, "main")
	mustDiagram(t, m, "SA")
	if m.Main() != d1 {
		t.Errorf("first diagram should become main")
	}
	if err := m.SetMain("SA"); err != nil {
		t.Fatalf("SetMain: %v", err)
	}
	if m.Main().Name() != "SA" {
		t.Errorf("SetMain did not take effect")
	}
	if err := m.SetMain("nope"); err == nil {
		t.Errorf("SetMain with unknown diagram should fail")
	}
}

func TestDuplicateDiagramName(t *testing.T) {
	m := NewModel("s")
	mustDiagram(t, m, "main")
	if _, err := m.AddDiagram("main"); err == nil {
		t.Fatal("duplicate diagram name should be rejected")
	}
}

func TestAddActionAndLookup(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	a, err := m.AddAction(d, "a1", "A1")
	if err != nil {
		t.Fatalf("AddAction: %v", err)
	}
	if a.ID() != "a1" || a.Name() != "A1" || a.Kind() != KindAction {
		t.Errorf("action fields wrong: %+v", a)
	}
	if d.Node("a1") != Node(a) {
		t.Errorf("diagram lookup by ID failed")
	}
	if d.NodeByName("A1") != Node(a) {
		t.Errorf("diagram lookup by name failed")
	}
	if m.Element("a1") != Element(a) {
		t.Errorf("model-wide lookup failed")
	}
	if a.Diagram() != d {
		t.Errorf("node should know its diagram")
	}
	if a.Owner() != Element(d) {
		t.Errorf("node owner should be its diagram")
	}
}

func TestDuplicateNodeID(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	if _, err := m.AddAction(d, "a1", "A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddAction(d, "a1", "A1bis"); err == nil {
		t.Fatal("duplicate node ID should be rejected")
	}
	d2 := mustDiagram(t, m, "other")
	if _, err := m.AddAction(d2, "a1", "A1ter"); err == nil {
		t.Fatal("node IDs must be unique model-wide, not per-diagram")
	}
}

func TestNewIDUnique(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		a, err := m.AddAction(d, "", "X")
		if err != nil {
			t.Fatal(err)
		}
		if seen[a.ID()] {
			t.Fatalf("NewID produced duplicate %q", a.ID())
		}
		seen[a.ID()] = true
	}
}

func TestNewIDSkipsTakenIDs(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	if _, err := m.AddAction(d, "e1", "X"); err != nil {
		t.Fatal(err)
	}
	id := m.NewID()
	if id == "e1" {
		t.Fatal("NewID returned an ID already in use")
	}
}

func TestConnectAndAdjacency(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	ini, _ := m.AddControl(d, "i", KindInitial)
	a, _ := m.AddAction(d, "a1", "A1")
	fin, _ := m.AddControl(d, "f", KindFinal)
	e1, err := d.Connect(ini.ID(), a.ID(), "")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	e2, err := d.Connect(a.ID(), fin.ID(), "GV > 0")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if e1.From() != "i" || e1.To() != "a1" {
		t.Errorf("edge endpoints wrong: %s -> %s", e1.From(), e1.To())
	}
	if got := d.Outgoing("a1"); len(got) != 1 || got[0] != e2 {
		t.Errorf("Outgoing(a1) wrong: %v", got)
	}
	if got := d.Incoming("a1"); len(got) != 1 || got[0] != e1 {
		t.Errorf("Incoming(a1) wrong: %v", got)
	}
	if e2.Guard() != "GV > 0" {
		t.Errorf("guard not preserved")
	}
	if e2.IsElse() {
		t.Errorf("non-else edge reported as else")
	}
	e2.SetGuard("else")
	if !e2.IsElse() {
		t.Errorf("else edge not recognized")
	}
}

func TestConnectUnknownEndpoint(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	if _, err := m.AddAction(d, "a1", "A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Connect("a1", "ghost", ""); err == nil {
		t.Fatal("connecting to an unknown node should fail")
	}
	if _, err := d.Connect("ghost", "a1", ""); err == nil {
		t.Fatal("connecting from an unknown node should fail")
	}
}

func TestInitialAndFinals(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	if d.Initial() != nil {
		t.Errorf("empty diagram should have no initial node")
	}
	ini, _ := m.AddControl(d, "", KindInitial)
	m.AddControl(d, "", KindFinal)
	m.AddControl(d, "", KindFinal)
	if d.Initial() != Node(ini) {
		t.Errorf("Initial() wrong")
	}
	if got := len(d.Finals()); got != 2 {
		t.Errorf("Finals() = %d, want 2", got)
	}
}

func TestAddControlRejectsNonControlKind(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	if _, err := m.AddControl(d, "", KindAction); err == nil {
		t.Fatal("AddControl should reject non-control kinds")
	}
}

func TestVariables(t *testing.T) {
	m := NewModel("s")
	if err := m.AddVariable(Variable{Name: "GV", Type: "double", Scope: ScopeGlobal}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVariable(Variable{Name: "P", Scope: ScopeGlobal}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVariable(Variable{Name: "GV", Scope: ScopeGlobal}); err == nil {
		t.Fatal("duplicate global should be rejected")
	}
	if err := m.AddVariable(Variable{Name: "GV", Scope: ScopeLocal}); err != nil {
		t.Fatalf("same name in different scope should be allowed: %v", err)
	}
	if err := m.AddVariable(Variable{Scope: ScopeGlobal}); err == nil {
		t.Fatal("empty variable name should be rejected")
	}
	v, ok := m.Variable("P")
	if !ok || v.Type != "double" {
		t.Errorf("Variable(P) = %+v, %v; want default double type", v, ok)
	}
	if got := len(m.VariablesIn(ScopeGlobal)); got != 2 {
		t.Errorf("globals = %d, want 2", got)
	}
	if got := len(m.VariablesIn(ScopeLocal)); got != 1 {
		t.Errorf("locals = %d, want 1", got)
	}
}

func TestFunctions(t *testing.T) {
	m := NewModel("s")
	f := Function{Name: "FA1", Params: []Param{{Name: "p", Type: "double"}}, Body: "2*p"}
	if err := m.AddFunction(f); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFunction(Function{Name: "FA1"}); err == nil {
		t.Fatal("duplicate function should be rejected")
	}
	if err := m.AddFunction(Function{}); err == nil {
		t.Fatal("empty function name should be rejected")
	}
	got, ok := m.Function("FA1")
	if !ok || got.Body != "2*p" {
		t.Errorf("Function(FA1) = %+v, %v", got, ok)
	}
	if got.ReturnType() != "double" {
		t.Errorf("default return type should be double")
	}
	if (Function{Type: "int"}).ReturnType() != "int" {
		t.Errorf("explicit return type should be preserved")
	}
}

func TestActivityAndLoopNodes(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	sa, err := m.AddActivity(d, "", "SA", "SA")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Body() != "SA" || sa.Kind() != KindActivity {
		t.Errorf("activity node wrong: %+v", sa)
	}
	lp, err := m.AddLoop(d, "", "L", "M", "body")
	if err != nil {
		t.Fatal(err)
	}
	if lp.Count() != "M" || lp.Body() != "body" || lp.Kind() != KindLoop {
		t.Errorf("loop node wrong: %+v", lp)
	}
}

func TestStats(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	m.AddControl(d, "", KindInitial)
	m.AddAction(d, "", "A1")
	m.AddAction(d, "", "A2")
	m.AddControl(d, "", KindFinal)
	nodes := d.Nodes()
	d.Connect(nodes[0].ID(), nodes[1].ID(), "")
	d.Connect(nodes[1].ID(), nodes[2].ID(), "")
	d.Connect(nodes[2].ID(), nodes[3].ID(), "")
	m.AddVariable(Variable{Name: "GV", Scope: ScopeGlobal})
	m.AddFunction(Function{Name: "F", Body: "1"})
	s := m.Stats()
	want := Stats{Diagrams: 1, Nodes: 4, Edges: 3, Actions: 2, Variables: 1, Functions: 1}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

func TestDisplayName(t *testing.T) {
	m := NewModel("s")
	d := mustDiagram(t, m, "main")
	a, _ := m.AddAction(d, "", "Kernel6")
	if got := DisplayName(a); got != "Kernel6" {
		t.Errorf("DisplayName = %q", got)
	}
	a.SetStereotype("action+")
	if got := DisplayName(a); !strings.Contains(got, "<<action+>>") {
		t.Errorf("DisplayName = %q, want guillemet notation", got)
	}
}
