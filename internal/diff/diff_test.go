package diff

import (
	"strings"
	"testing"

	"prophet/internal/samples"
	"prophet/internal/uml"
)

func findChange(t *testing.T, changes []Change, op Op, pathPart string) Change {
	t.Helper()
	for _, c := range changes {
		if c.Op == op && strings.Contains(c.Path, pathPart) {
			return c
		}
	}
	t.Fatalf("no %s change with path containing %q in %v", op, pathPart, changes)
	return Change{}
}

func TestIdenticalModelsNoDiff(t *testing.T) {
	a := samples.Sample()
	b := uml.Clone(a)
	if changes := Models(a, b); len(changes) != 0 {
		t.Errorf("clone should diff clean, got %v", changes)
	}
	if got := Format(nil); !strings.Contains(got, "no differences") {
		t.Errorf("empty format = %q", got)
	}
}

func TestVariableChanges(t *testing.T) {
	a := samples.Sample()
	b := uml.Clone(a)
	b.AddVariable(uml.Variable{Name: "extra", Type: "int", Scope: uml.ScopeGlobal})
	changes := Models(a, b)
	findChange(t, changes, Added, "variable extra")

	// Removal is the reverse direction.
	changes = Models(b, a)
	findChange(t, changes, Removed, "variable extra")
}

func TestFunctionChanges(t *testing.T) {
	a := samples.Sample()
	b := uml.Clone(a)
	// Mutate FA1's body via re-registration: functions are value types, so
	// rebuild the model's function list through a fresh model.
	b2 := uml.NewModel(b.Name())
	for _, f := range b.Functions() {
		if f.Name == "FA1" {
			f.Body = "99"
		}
		b2.AddFunction(f)
	}
	changes := Models(a, b2)
	c := findChange(t, changes, Changed, "function FA1")
	if !strings.Contains(c.Detail, "99") {
		t.Errorf("detail should show new body: %s", c.Detail)
	}
	// Every diagram of a is "removed" relative to the gutted b2.
	findChange(t, changes, Removed, "diagram main")
}

func TestNodeChanges(t *testing.T) {
	a := samples.Sample()
	b := uml.Clone(a)
	a1 := b.Main().NodeByName("A1").(*uml.ActionNode)
	a1.SetCostFunc("FA2()")
	a1.SetTag("id", "42")
	a1.SetTag("new", "x")
	a1.SetCode("GV = 5;")
	changes := Models(a, b)
	var details []string
	for _, c := range changes {
		if strings.Contains(c.Path, "(A1)") {
			details = append(details, c.Detail)
		}
	}
	joined := strings.Join(details, "; ")
	for _, want := range []string{
		`cost function: "FA1()" -> "FA2()"`,
		`tag id: "1" -> "42"`,
		`tag new added ("x")`,
		"code fragment changed",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %q", want, joined)
		}
	}
}

func TestEdgeChanges(t *testing.T) {
	a := samples.Sample()
	b := uml.Clone(a)
	for _, e := range b.Main().Edges() {
		if e.Guard() == "GV > 0" {
			e.SetGuard("GV >= 1")
		}
	}
	changes := Models(a, b)
	c := findChange(t, changes, Changed, "edge")
	if !strings.Contains(c.Detail, `"GV > 0" -> "GV >= 1"`) {
		t.Errorf("guard detail wrong: %s", c.Detail)
	}
}

func TestDiagramAddRemove(t *testing.T) {
	a := samples.Sample()
	b := uml.Clone(a)
	b.AddDiagram("brand-new")
	changes := Models(a, b)
	findChange(t, changes, Added, "diagram brand-new")
}

func TestKindChangeShortCircuits(t *testing.T) {
	a := uml.NewModel("m")
	da, _ := a.AddDiagram("main")
	a.AddAction(da, "n1", "X")
	b := uml.NewModel("m")
	db, _ := b.AddDiagram("main")
	b.AddActivity(db, "n1", "X", "main")
	changes := Models(a, b)
	c := findChange(t, changes, Changed, "node n1")
	if !strings.Contains(c.Detail, "kind") {
		t.Errorf("kind change not reported: %v", changes)
	}
}

func TestLoopFieldChanges(t *testing.T) {
	a := uml.NewModel("m")
	da, _ := a.AddDiagram("main")
	a.AddDiagram("body")
	la, _ := a.AddLoop(da, "l1", "L", "N", "body")
	la.SetVar("i")
	b := uml.Clone(a)
	lb := b.Main().Node("l1").(*uml.LoopNode)
	lb.SetCount("M")
	lb.SetVar("j")
	changes := Models(a, b)
	var details []string
	for _, c := range changes {
		details = append(details, c.Detail)
	}
	joined := strings.Join(details, "; ")
	if !strings.Contains(joined, `count: "N" -> "M"`) || !strings.Contains(joined, `loop variable: "i" -> "j"`) {
		t.Errorf("loop changes missing: %s", joined)
	}
}

func TestModelLevelChanges(t *testing.T) {
	a := samples.Sample()
	b := uml.Clone(a)
	b.SetName("renamed")
	b.SetMain("SA")
	changes := Models(a, b)
	findChange(t, changes, Changed, "model")
	var sawMain bool
	for _, c := range changes {
		if strings.Contains(c.Detail, "main diagram") {
			sawMain = true
		}
	}
	if !sawMain {
		t.Errorf("main diagram change not reported: %v", changes)
	}
}

func TestFormat(t *testing.T) {
	out := Format([]Change{
		{Op: Added, Path: "function F"},
		{Op: Changed, Path: "node n1", Detail: "name changed"},
	})
	if !strings.Contains(out, "added function F") || !strings.Contains(out, "changed node n1: name changed") {
		t.Errorf("format output:\n%s", out)
	}
}
