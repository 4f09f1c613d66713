package checker

import (
	"fmt"
	"strings"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/profile"
	"prophet/internal/samples"
	"prophet/internal/uml"
)

func checkModel(t *testing.T, m *uml.Model) *Report {
	t.Helper()
	return New().Check(m)
}

func diagnosticsFor(rep *Report, rule string) []Diagnostic { return rep.ByRule(rule) }

func TestSampleModelIsClean(t *testing.T) {
	rep := checkModel(t, samples.Sample())
	if rep.HasErrors() {
		t.Fatalf("paper sample model should check clean, got:\n%v", rep.Diagnostics)
	}
}

func TestKernel6ModelsAreClean(t *testing.T) {
	for _, m := range []*uml.Model{samples.Kernel6(), samples.Kernel6Detailed()} {
		rep := checkModel(t, m)
		if rep.HasErrors() {
			t.Errorf("%s should check clean, got:\n%v", m.Name(), rep.Diagnostics)
		}
	}
}

func TestPipelineModelIsClean(t *testing.T) {
	rep := checkModel(t, samples.Pipeline(3))
	if rep.HasErrors() {
		t.Fatalf("pipeline model should check clean, got:\n%v", rep.Diagnostics)
	}
}

func TestMissingInitial(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Action("A")
	d.Final()
	d.Flow("A", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "single-initial")) != 1 {
		t.Errorf("missing initial not reported: %v", rep.Diagnostics)
	}
}

func TestMultipleInitials(t *testing.T) {
	m := uml.NewModel("m")
	d, _ := m.AddDiagram("main")
	m.AddControl(d, "", uml.KindInitial)
	m.AddControl(d, "", uml.KindInitial)
	m.AddControl(d, "", uml.KindFinal)
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "single-initial")
	if len(found) != 1 || !strings.Contains(found[0].Message, "2 initial") {
		t.Errorf("multiple initials not reported: %v", rep.Diagnostics)
	}
}

func TestMissingFinal(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A")
	d.Flow("initial", "A")
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "has-final")) != 1 {
		t.Errorf("missing final not reported")
	}
}

func TestEmptyDiagramAllowed(t *testing.T) {
	m := uml.NewModel("m")
	m.AddDiagram("main")
	rep := checkModel(t, m)
	if rep.HasErrors() {
		t.Errorf("empty diagram should not error: %v", rep.Diagnostics)
	}
}

func TestInitialEdgeViolations(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A")
	d.Final()
	d.Chain("initial", "A", "final")
	d.Flow("A", "initial") // incoming edge into initial
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "initial-edges")) == 0 {
		t.Errorf("incoming edge into initial not reported")
	}
}

func TestFinalOutgoingViolation(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A")
	d.Final()
	d.Chain("initial", "A", "final")
	d.Flow("final", "A")
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "final-edges")) == 0 {
		t.Errorf("outgoing edge from final not reported")
	}
}

func TestDecisionGuardViolations(t *testing.T) {
	b := builder.New("m")
	b.Global("GV", "double")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A")
	d.Action("B")
	d.Action("C")
	d.Merge("mrg")
	d.Final()
	d.Flow("initial", "dec")
	d.FlowIf("dec", "A", "")     // missing guard
	d.FlowIf("dec", "B", "else") // ok
	d.FlowIf("dec", "C", "else") // second else
	d.Chain("A", "mrg")
	d.Chain("B", "mrg")
	d.Chain("C", "mrg", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "decision-guards")
	if len(found) != 2 {
		t.Errorf("want 2 decision-guard findings (unguarded + double else), got %v", found)
	}
}

func TestDecisionTooFewBranches(t *testing.T) {
	b := builder.New("m")
	b.Global("GV", "double")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A")
	d.Final()
	d.Flow("initial", "dec")
	d.FlowIf("dec", "A", "GV > 0")
	d.Chain("A", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "decision-guards")) == 0 {
		t.Errorf("single-branch decision not reported")
	}
}

func TestSingleSuccessorViolation(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A")
	d.Action("B")
	d.Action("C")
	d.Final()
	d.Chain("initial", "A", "B")
	d.Flow("A", "C") // A now branches without a decision node
	d.Chain("B", "final")
	d.Chain("C", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "single-successor")) == 0 {
		t.Errorf("implicit branching not reported")
	}
}

func TestForkJoinArity(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Fork("fork")
	d.Action("A")
	d.Join("join")
	d.Final()
	d.Chain("initial", "fork", "A", "join", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "fork-join-arity")
	if len(found) != 2 {
		t.Errorf("fork with 1 out and join with 1 in should both report: %v", found)
	}
}

func TestUnreachableWarning(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A")
	d.Action("Island")
	d.Final()
	d.Chain("initial", "A", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "reachable")
	if len(found) != 1 || found[0].Severity != Warning {
		t.Errorf("unreachable node should warn: %v", found)
	}
	if rep.HasErrors() {
		t.Errorf("reachable is a warning by default; report should have no errors")
	}
}

func TestBodyExists(t *testing.T) {
	m := uml.NewModel("m")
	d, _ := m.AddDiagram("main")
	ini, _ := m.AddControl(d, "", uml.KindInitial)
	sa, _ := m.AddActivity(d, "", "SA", "ghost")
	fin, _ := m.AddControl(d, "", uml.KindFinal)
	d.Connect(ini.ID(), sa.ID(), "")
	d.Connect(sa.ID(), fin.ID(), "")
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "body-exists")) != 1 {
		t.Errorf("dangling activity body not reported: %v", rep.Diagnostics)
	}
}

func TestActivityCycleDetected(t *testing.T) {
	m := uml.NewModel("m")
	d1, _ := m.AddDiagram("main")
	d2, _ := m.AddDiagram("sub")
	// main contains sub, sub contains main: cycle.
	i1, _ := m.AddControl(d1, "", uml.KindInitial)
	a1, _ := m.AddActivity(d1, "", "GoSub", "sub")
	f1, _ := m.AddControl(d1, "", uml.KindFinal)
	d1.Connect(i1.ID(), a1.ID(), "")
	d1.Connect(a1.ID(), f1.ID(), "")
	i2, _ := m.AddControl(d2, "", uml.KindInitial)
	a2, _ := m.AddActivity(d2, "", "GoMain", "main")
	f2, _ := m.AddControl(d2, "", uml.KindFinal)
	d2.Connect(i2.ID(), a2.ID(), "")
	d2.Connect(a2.ID(), f2.ID(), "")
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "no-activity-cycles")) == 0 {
		t.Errorf("activity nesting cycle not reported")
	}
}

func TestGuardErrors(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A")
	d.Action("B")
	d.Final()
	d.Flow("initial", "dec")
	d.FlowIf("dec", "A", "GV >") // malformed
	d.FlowIf("dec", "B", "mystery > 0")
	d.Chain("A", "final")
	d.Chain("B", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "guards-parse")
	if len(found) != 2 {
		t.Errorf("want malformed-guard + undeclared-variable findings, got %v", found)
	}
}

func TestCostFunctionErrors(t *testing.T) {
	b := builder.New("m")
	b.Function("F", nil, "1")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A").Cost("Missing()")
	d.Action("B").Cost("F(")
	d.Action("C").Cost("F() + mystery")
	d.Final()
	d.Chain("initial", "A", "B", "C", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "cost-functions")
	if len(found) != 3 {
		t.Errorf("want 3 cost-function findings, got %d: %v", len(found), found)
	}
}

func TestFunctionBodyChecked(t *testing.T) {
	b := builder.New("m")
	b.Function("F", []string{"x"}, "x + y") // y undeclared
	d := b.Diagram("main")
	d.Initial()
	d.Action("A").Cost("F(1)")
	d.Final()
	d.Chain("initial", "A", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "cost-functions")
	if len(found) != 1 || !strings.Contains(found[0].Message, `"y"`) {
		t.Errorf("undeclared variable in function body not reported: %v", found)
	}
}

// A source that many elements share is parsed once per check, yet each
// element still gets its own diagnostic, with its own id, in walk order;
// and whether a name is declared is decided per element, so a function
// body whose parameter is x passes while an action cost of the same text
// is flagged.
func TestSharedSourcesDiagnosedPerElement(t *testing.T) {
	b := builder.New("m")
	b.Function("F", []string{"x"}, "x*2")
	d := b.Diagram("main")
	d.Initial()
	chain := []string{"initial"}
	action := func(name, cost string) {
		d.Action(name).Cost(cost)
		chain = append(chain, name)
	}
	for i := 0; i < 200; i++ {
		action(fmt.Sprintf("Shared%d", i), "F(1) + y")
	}
	for i := 0; i < 3; i++ {
		action(fmt.Sprintf("Broken%d", i), "y *")
	}
	action("Twin", "x*2")
	d.Final()
	d.Chain(append(chain, "final")...)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"F(1) + y": `cost function "F(1) + y" references undeclared variable "y"`,
		"y *":      `cost function "y *" does not parse: expr: expected operand, found end of expression at offset 3 in "y *"`,
		"x*2":      `cost function "x*2" references undeclared variable "x"`,
	}
	var wantDiags []Diagnostic
	for _, n := range m.Main().Nodes() {
		if a, ok := n.(*uml.ActionNode); ok {
			wantDiags = append(wantDiags, Diagnostic{
				Rule: "cost-functions", Severity: Error, ElementID: a.ID(), Message: want[a.CostFunc()],
			})
		}
	}
	got := diagnosticsFor(checkModel(t, m), "cost-functions")
	if len(got) != len(wantDiags) {
		t.Fatalf("got %d cost-function diagnostics, want %d (one per action, none for the body of F): %v",
			len(got), len(wantDiags), got)
	}
	for i := range wantDiags {
		if got[i] != wantDiags[i] {
			t.Errorf("diagnostic %d = %v, want %v", i, got[i], wantDiags[i])
		}
	}
}

func TestWellKnownVarsAllowed(t *testing.T) {
	b := builder.New("m")
	b.Function("F", nil, "pid + tid + uid + processes + threads + nodes + processors")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A").Cost("F()")
	d.Final()
	d.Chain("initial", "A", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "cost-functions")) != 0 {
		t.Errorf("well-known names should be allowed: %v", rep.Diagnostics)
	}
}

func TestLoopVarVisible(t *testing.T) {
	m := samples.Kernel6Detailed()
	rep := checkModel(t, m)
	if rep.HasErrors() {
		t.Errorf("loop variables should be visible to inner counts: %v", rep.Diagnostics)
	}
}

func TestProfileConformanceRule(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A").Tag("id", "NaN") // id must be Integer
	d.Final()
	d.Chain("initial", "A", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "profile-conformance")) != 1 {
		t.Errorf("tag type violation not reported: %v", rep.Diagnostics)
	}
}

func TestPerfElementNameCollision(t *testing.T) {
	// Same action name in two different diagrams collides in generated C++.
	b := builder.New("m")
	d1 := b.Diagram("main")
	d1.Initial()
	d1.Action("A")
	d1.Final()
	d1.Chain("initial", "A", "final")
	d2 := b.Diagram("sub")
	d2.Initial()
	d2.Action("A")
	d2.Final()
	d2.Chain("initial", "A", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	if len(diagnosticsFor(rep, "perf-element-names")) != 1 {
		t.Errorf("cross-diagram name collision not reported: %v", rep.Diagnostics)
	}
}

func TestWeightedDecisionRules(t *testing.T) {
	mk := func(w1, w2 float64) *uml.Model {
		b := builder.New("m")
		d := b.Diagram("main")
		d.Initial()
		d.Decision("dec")
		d.Action("A")
		d.Action("B")
		d.Merge("mrg")
		d.Final()
		d.Flow("initial", "dec")
		d.FlowWeighted("dec", "A", w1)
		d.FlowWeighted("dec", "B", w2)
		d.Chain("A", "mrg")
		d.Chain("B", "mrg", "final")
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Weights summing to 1: clean under decision-guards and weights-sum.
	rep := checkModel(t, mk(0.7, 0.3))
	if len(rep.ByRule("decision-guards")) != 0 {
		t.Errorf("all-weighted decision should satisfy decision-guards: %v", rep.Diagnostics)
	}
	if len(rep.ByRule("weights-sum")) != 0 {
		t.Errorf("unit-sum weights should not warn: %v", rep.Diagnostics)
	}
	// Off-unit sum: Info note.
	rep = checkModel(t, mk(2, 3))
	found := rep.ByRule("weights-sum")
	if len(found) != 1 || found[0].Severity != Info {
		t.Errorf("off-unit weights should produce one Info: %v", found)
	}
	// Mixed guarded/weighted: error.
	m := mk(0.5, 0.5)
	for _, e := range m.Main().Edges() {
		if e.Weight() == 0.5 {
			e.SetGuard("GV > 0")
			e.SetWeight(0)
			break
		}
	}
	m.AddVariable(uml.Variable{Name: "GV", Type: "double", Scope: uml.ScopeGlobal})
	rep = checkModel(t, m)
	if len(rep.ByRule("decision-guards")) == 0 {
		t.Errorf("mixed decision should error: %v", rep.Diagnostics)
	}
}

func TestMPIPairingRule(t *testing.T) {
	// Receives without sends.
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.MPI("R", profile.MPIRecv).Tag("src", "0")
	d.Final()
	d.Chain("initial", "R", "final")
	m, _ := b.Build()
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "mpi-pairing")
	if len(found) != 1 || found[0].Severity != Warning {
		t.Errorf("recv-without-send should warn: %v", found)
	}

	// Sends without receives (the pipeline sample is the canonical case).
	rep = checkModel(t, samples.Pipeline(2))
	if len(diagnosticsFor(rep, "mpi-pairing")) != 1 {
		t.Errorf("send-without-recv should warn")
	}
	if rep.HasErrors() {
		t.Errorf("pairing warnings must not block transformation")
	}

	// Balanced models stay quiet.
	b2 := builder.New("m2")
	d2 := b2.Diagram("main")
	d2.Initial()
	d2.MPI("S", profile.MPISend).Tag("dest", "1").Tag("size", "8")
	d2.MPI("R", profile.MPIRecv).Tag("src", "0")
	d2.Final()
	d2.Chain("initial", "S", "R", "final")
	m2, _ := b2.Build()
	if got := diagnosticsFor(checkModel(t, m2), "mpi-pairing"); len(got) != 0 {
		t.Errorf("balanced model should not warn: %v", got)
	}
}

func TestUnannotatedActionInfo(t *testing.T) {
	m := uml.NewModel("m")
	d, _ := m.AddDiagram("main")
	i, _ := m.AddControl(d, "", uml.KindInitial)
	a, _ := m.AddAction(d, "", "plain") // no stereotype
	f, _ := m.AddControl(d, "", uml.KindFinal)
	d.Connect(i.ID(), a.ID(), "")
	d.Connect(a.ID(), f.ID(), "")
	rep := checkModel(t, m)
	found := diagnosticsFor(rep, "unannotated-actions")
	if len(found) != 1 || found[0].Severity != Info {
		t.Errorf("unannotated action should be Info: %v", found)
	}
}

func TestConfigDisableAndOverride(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A")
	d.Action("Island")
	d.Final()
	d.Chain("initial", "A", "final")
	m, _ := b.Build()

	cfg := Config{
		Disabled:   map[string]bool{"unannotated-actions": true},
		Severities: map[string]Severity{"reachable": Error},
	}
	rep := NewWith(profile.NewRegistry(), cfg).Check(m)
	if len(rep.ByRule("unannotated-actions")) != 0 {
		t.Errorf("disabled rule still ran")
	}
	found := rep.ByRule("reachable")
	if len(found) != 1 || found[0].Severity != Error {
		t.Errorf("severity override not applied: %v", found)
	}
	if !rep.HasErrors() {
		t.Errorf("escalated warning should count as error")
	}
}

func TestReportCounting(t *testing.T) {
	rep := &Report{Diagnostics: []Diagnostic{
		{Rule: "a", Severity: Error},
		{Rule: "b", Severity: Warning},
		{Rule: "b", Severity: Warning},
		{Rule: "c", Severity: Info},
	}}
	if !rep.HasErrors() || rep.Count(Error) != 1 || rep.Count(Warning) != 2 || rep.Count(Info) != 1 {
		t.Errorf("counting wrong")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "r", Severity: Error, ElementID: "e3", Message: "boom"}
	s := d.String()
	for _, part := range []string{"error", "[r]", "e3", "boom"} {
		if !strings.Contains(s, part) {
			t.Errorf("diagnostic string %q missing %q", s, part)
		}
	}
	d2 := Diagnostic{Rule: "r", Severity: Info, Message: "m"}
	if strings.Contains(d2.String(), "element") {
		t.Errorf("model-level diagnostic should not mention an element")
	}
}

func TestRulesListAndDocs(t *testing.T) {
	rules := Rules()
	if len(rules) != len(allRules) {
		t.Errorf("Rules() = %d entries, want %d", len(rules), len(allRules))
	}
	for _, name := range rules {
		doc, ok := RuleDoc(name)
		if !ok || doc == "" {
			t.Errorf("rule %q lacks documentation", name)
		}
	}
	if _, ok := RuleDoc("no-such-rule"); ok {
		t.Errorf("unknown rule should not have docs")
	}
}

func TestSeverityStrings(t *testing.T) {
	if Error.String() != "error" || Warning.String() != "warning" || Info.String() != "info" {
		t.Errorf("severity names wrong")
	}
}
