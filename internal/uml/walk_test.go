package uml

import (
	"errors"
	"testing"
)

// buildSampleModel constructs the paper's sample model (Figure 7a): a main
// activity with A1, a decision on GV leading to either activity SA (with
// SA1, SA2) or action A2, merging into A4.
func buildSampleModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel("sample")
	m.AddVariable(Variable{Name: "GV", Type: "double", Scope: ScopeGlobal})
	m.AddVariable(Variable{Name: "P", Type: "double", Scope: ScopeGlobal})
	m.AddFunction(Function{Name: "FA1", Body: "2*P"})
	m.AddFunction(Function{Name: "FA2", Body: "3*P"})
	m.AddFunction(Function{Name: "FA4", Body: "P"})
	m.AddFunction(Function{Name: "FSA1", Body: "5"})
	m.AddFunction(Function{Name: "FSA2", Params: []Param{{Name: "pid", Type: "int"}}, Body: "pid+1"})

	main, err := m.AddDiagram("main")
	if err != nil {
		t.Fatal(err)
	}
	ini, _ := m.AddControl(main, "", KindInitial)
	a1, _ := m.AddAction(main, "", "A1")
	a1.SetStereotype("action+")
	a1.SetCostFunc("FA1()")
	dec, _ := m.AddControl(main, "", KindDecision)
	sa, _ := m.AddActivity(main, "", "SA", "SA")
	sa.SetStereotype("activity+")
	a2, _ := m.AddAction(main, "", "A2")
	a2.SetStereotype("action+")
	a2.SetCostFunc("FA2()")
	mer, _ := m.AddControl(main, "", KindMerge)
	a4, _ := m.AddAction(main, "", "A4")
	a4.SetStereotype("action+")
	a4.SetCostFunc("FA4()")
	fin, _ := m.AddControl(main, "", KindFinal)
	main.Connect(ini.ID(), a1.ID(), "")
	main.Connect(a1.ID(), dec.ID(), "")
	main.Connect(dec.ID(), sa.ID(), "GV > 0")
	main.Connect(dec.ID(), a2.ID(), "else")
	main.Connect(sa.ID(), mer.ID(), "")
	main.Connect(a2.ID(), mer.ID(), "")
	main.Connect(mer.ID(), a4.ID(), "")
	main.Connect(a4.ID(), fin.ID(), "")

	sub, err := m.AddDiagram("SA")
	if err != nil {
		t.Fatal(err)
	}
	si, _ := m.AddControl(sub, "", KindInitial)
	sa1, _ := m.AddAction(sub, "", "SA1")
	sa1.SetStereotype("action+")
	sa1.SetCostFunc("FSA1()")
	sa2, _ := m.AddAction(sub, "", "SA2")
	sa2.SetStereotype("action+")
	sa2.SetCostFunc("FSA2(pid)")
	sf, _ := m.AddControl(sub, "", KindFinal)
	sub.Connect(si.ID(), sa1.ID(), "")
	sub.Connect(sa1.ID(), sa2.ID(), "")
	sub.Connect(sa2.ID(), sf.ID(), "")
	return m
}

func TestWalkVisitsEverything(t *testing.T) {
	m := buildSampleModel(t)
	var kinds = map[Kind]int{}
	count := 0
	err := Walk(m, func(e Element) error {
		kinds[e.Kind()]++
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	want := 1 + s.Diagrams + s.Nodes + s.Edges
	if count != want {
		t.Errorf("Walk visited %d elements, want %d", count, want)
	}
	if kinds[KindModel] != 1 {
		t.Errorf("model visited %d times", kinds[KindModel])
	}
	if kinds[KindAction] != 5 {
		t.Errorf("actions visited %d times, want 5 (A1,A2,A4,SA1,SA2)", kinds[KindAction])
	}
	if kinds[KindActivity] != 1 {
		t.Errorf("activities visited %d times, want 1 (SA)", kinds[KindActivity])
	}
}

func TestWalkStopsOnError(t *testing.T) {
	m := buildSampleModel(t)
	sentinel := errors.New("stop")
	count := 0
	err := Walk(m, func(e Element) error {
		count++
		if count == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Walk should propagate callback error, got %v", err)
	}
	if count != 3 {
		t.Errorf("Walk continued after error: %d visits", count)
	}
}

func TestActionsAndActivities(t *testing.T) {
	m := buildSampleModel(t)
	acts := Actions(m)
	if len(acts) != 5 {
		t.Fatalf("Actions = %d, want 5", len(acts))
	}
	names := map[string]bool{}
	for _, a := range acts {
		names[a.Name()] = true
	}
	for _, want := range []string{"A1", "A2", "A4", "SA1", "SA2"} {
		if !names[want] {
			t.Errorf("missing action %s", want)
		}
	}
	avs := Activities(m)
	if len(avs) != 1 || avs[0].Name() != "SA" {
		t.Errorf("Activities = %v", avs)
	}
}

func TestConvergence(t *testing.T) {
	m := buildSampleModel(t)
	d := m.Main()
	var dec Node
	for _, n := range d.Nodes() {
		if n.Kind() == KindDecision {
			dec = n
		}
	}
	conv := d.Convergence(dec)
	if conv == nil || conv.Kind() != KindMerge {
		t.Fatalf("branches of the sample decision converge at the merge, got %v", conv)
	}
	if ref := BFSConvergence(d, BranchHeads(d, dec)); ref != conv {
		t.Errorf("reference search disagrees: %v", ref)
	}
	// A node with one successor closes at that successor; a node of
	// another diagram closes nowhere here.
	a1 := d.NodeByName("A1")
	if got := d.Convergence(a1); got != dec {
		t.Errorf("single successor: got %v, want the decision", got)
	}
	if got := d.Convergence(m.DiagramByName("SA").NodeByName("SA1")); got != nil {
		t.Errorf("foreign node: got %v, want nil", got)
	}
	// A final node closes only at the end of the flow.
	for _, fin := range d.Finals() {
		if got := d.Convergence(fin); got != nil {
			t.Errorf("final node: got %v, want nil", got)
		}
	}
}

func TestConvergenceNonConverging(t *testing.T) {
	m := NewModel("m")
	d, _ := m.AddDiagram("main")
	dec, _ := m.AddControl(d, "", KindDecision)
	a, _ := m.AddAction(d, "", "A")
	b, _ := m.AddAction(d, "", "B")
	fa, _ := m.AddControl(d, "", KindFinal)
	fb, _ := m.AddControl(d, "", KindFinal)
	d.Connect(dec.ID(), a.ID(), "x > 0")
	d.Connect(dec.ID(), b.ID(), "else")
	d.Connect(a.ID(), fa.ID(), "")
	d.Connect(b.ID(), fb.ID(), "")
	if got := d.Convergence(dec); got != nil {
		t.Errorf("distinct finals should not converge, got %v", got.ID())
	}
	if got := BFSConvergence(d, BranchHeads(d, dec)); got != nil {
		t.Errorf("reference search: distinct finals should not converge, got %v", got.ID())
	}
}

func TestConvergenceNested(t *testing.T) {
	// Outer decision whose true-branch contains an inner decision; both
	// inner arms rejoin before the outer merge. The outer decision must
	// close at the outer merge, not the inner one.
	m := NewModel("m")
	d, _ := m.AddDiagram("main")
	ini, _ := m.AddControl(d, "", KindInitial)
	outer, _ := m.AddControl(d, "", KindDecision)
	inner, _ := m.AddControl(d, "", KindDecision)
	x, _ := m.AddAction(d, "", "X")
	y, _ := m.AddAction(d, "", "Y")
	innerMerge, _ := m.AddControl(d, "", KindMerge)
	elseAct, _ := m.AddAction(d, "", "E")
	outerMerge, _ := m.AddControl(d, "", KindMerge)
	fin, _ := m.AddControl(d, "", KindFinal)
	d.Connect(ini.ID(), outer.ID(), "")
	d.Connect(outer.ID(), inner.ID(), "a > 0")
	d.Connect(outer.ID(), elseAct.ID(), "else")
	d.Connect(inner.ID(), x.ID(), "b > 0")
	d.Connect(inner.ID(), y.ID(), "else")
	d.Connect(x.ID(), innerMerge.ID(), "")
	d.Connect(y.ID(), innerMerge.ID(), "")
	d.Connect(innerMerge.ID(), outerMerge.ID(), "")
	d.Connect(elseAct.ID(), outerMerge.ID(), "")
	if got := d.Convergence(outer); got != outerMerge {
		t.Errorf("outer convergence = %v, want outer merge %s", got, outerMerge.ID())
	}
	if got := d.Convergence(inner); got != innerMerge {
		t.Errorf("inner convergence = %v, want inner merge", got)
	}
	if got := d.Convergence(ini); got != outer {
		t.Errorf("initial node closes at %v, want the outer decision", got)
	}
	// Connect drops the derived graph: once the flow goes on past the
	// outer merge, the merge closes at what follows it.
	d.Connect(outerMerge.ID(), fin.ID(), "")
	if got := d.Convergence(outerMerge); got != fin {
		t.Errorf("after Connect: merge closes at %v, want the final node", got)
	}
}

func TestElementsWithStereotype(t *testing.T) {
	m := buildSampleModel(t)
	actions := ElementsWithStereotype(m, "action+")
	if len(actions) != 5 {
		t.Errorf("action+ elements = %d, want 5", len(actions))
	}
	activities := ElementsWithStereotype(m, "activity+")
	if len(activities) != 1 {
		t.Errorf("activity+ elements = %d, want 1", len(activities))
	}
	if got := ElementsWithStereotype(m, "nothing"); len(got) != 0 {
		t.Errorf("unknown stereotype should select nothing, got %d", len(got))
	}
}
