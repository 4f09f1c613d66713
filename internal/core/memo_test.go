package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/checker"
	"prophet/internal/modelgen"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// memoBase has a node of every kind the mutators reach: guarded and
// weighted decisions, an action with code and cost, an activity and a
// loop with body diagrams.
func memoBase(t *testing.T) *uml.Model {
	t.Helper()
	b := builder.New("memo")
	b.Global("x", "double")
	b.Function("F", []string{"n"}, "2*n")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A").Cost("F(x)").Code("a = 1;").Tag("id", "7")
	d.Activity("Act", "sub")
	d.Merge("mer")
	d.Loop("L", "3", "lbody").Var("i")
	d.Decision("w")
	d.Action("B").Cost("1")
	d.Action("C").Cost("2")
	d.Merge("wm")
	d.Final()
	d.Flow("initial", "dec")
	d.FlowIf("dec", "A", "x > 1")
	d.FlowIf("dec", "Act", "else")
	d.Flow("A", "mer").Flow("Act", "mer").Flow("mer", "L").Flow("L", "w")
	d.FlowWeighted("w", "B", 0.25)
	d.FlowWeighted("w", "C", 0.75)
	d.Flow("B", "wm").Flow("C", "wm").Flow("wm", "final")
	sub := b.Diagram("sub")
	sub.Initial()
	sub.Action("S").Cost("x")
	sub.Final()
	sub.Chain("initial", "S", "final")
	lb := b.Diagram("lbody")
	lb.Initial()
	lb.Action("LB").Cost("i")
	lb.Final()
	lb.Chain("initial", "LB", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// regionText renders a region tree with the identities of its nodes and
// edges.
func regionText(sb *strings.Builder, r *uml.Region) {
	fmt.Fprintf(sb, "(%d", r.Kind)
	if r.Node != nil {
		sb.WriteString(" " + r.Node.ID())
	}
	if r.Err != nil {
		sb.WriteString(" err=" + r.Err.Error())
	}
	for i := range r.Items {
		regionText(sb, &r.Items[i])
	}
	for i := range r.Arms {
		sb.WriteString(" arm " + r.Arms[i].Edge.ID())
		regionText(sb, &r.Arms[i].Body)
	}
	sb.WriteString(")")
}

// outputs is what the pipeline derives from m: the check report, both
// generators' text or error, and every diagram's region tree.
func outputs(p *Prophet, m *uml.Model) string {
	var sb strings.Builder
	for _, d := range p.Check(m).Diagnostics {
		sb.WriteString(d.String() + "\n")
	}
	cpp, err := p.TransformCpp(m)
	fmt.Fprintf(&sb, "cpp %v\n%s\n", err, cpp)
	gosrc, err := p.TransformGo(m)
	fmt.Fprintf(&sb, "go %v\n%s\n", err, gosrc)
	for _, d := range m.Diagrams() {
		r := d.Regions()
		sb.WriteString(d.Name() + " ")
		regionText(&sb, &r)
		sb.WriteString("\n")
	}
	return sb.String()
}

type probeKey struct{}

// Every exported mutator drops the model's memo: after a model has been
// checked, rendered and laid out, an edit is seen by Check, TransformCpp,
// TransformGo and Regions exactly as by a fresh decode of the edited
// model.
func TestMemoDroppedByEveryMutator(t *testing.T) {
	node := func(m *uml.Model, name string) uml.Node { return m.Main().NodeByName(name) }
	edge := func(m *uml.Model, from string) *uml.Edge {
		return m.Main().Outgoing(node(m, from).ID())[0]
	}
	must := func(t *testing.T, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name string
		edit func(*testing.T, *uml.Model)
		// invisible marks an edit no pipeline output shows; the memo
		// probe still sees it.
		invisible bool
	}{
		{name: "Model.AddDiagram", edit: func(t *testing.T, m *uml.Model) {
			_, err := m.AddDiagram("extra")
			must(t, err)
		}},
		{name: "Model.AddAction", edit: func(t *testing.T, m *uml.Model) {
			_, err := m.AddAction(m.Main(), "", "Z")
			must(t, err)
		}},
		{name: "Model.AddActivity", edit: func(t *testing.T, m *uml.Model) {
			_, err := m.AddActivity(m.Main(), "", "Z", "sub")
			must(t, err)
		}},
		{name: "Model.AddControl", edit: func(t *testing.T, m *uml.Model) {
			_, err := m.AddControl(m.Main(), "", uml.KindInitial)
			must(t, err)
		}},
		{name: "Model.AddLoop", edit: func(t *testing.T, m *uml.Model) {
			_, err := m.AddLoop(m.Main(), "", "Z", "2", "lbody")
			must(t, err)
		}},
		{name: "Diagram.Connect", edit: func(t *testing.T, m *uml.Model) {
			_, err := m.Main().Connect(node(m, "dec").ID(), node(m, "A").ID(), "x > 5")
			must(t, err)
		}},
		{name: "Model.SetName", edit: func(t *testing.T, m *uml.Model) { m.SetName("renamed") }},
		{name: "Diagram.SetName", edit: func(t *testing.T, m *uml.Model) { m.DiagramByName("sub").SetName("sub2") }},
		{name: "Node.SetName", edit: func(t *testing.T, m *uml.Model) { node(m, "A").SetName("A2") }},
		{name: "Edge.SetName", invisible: true, edit: func(t *testing.T, m *uml.Model) { edge(m, "A").SetName("flow") }},
		{name: "SetTag", edit: func(t *testing.T, m *uml.Model) { node(m, "A").SetTag("id", "42") }},
		{name: "DeleteTag", edit: func(t *testing.T, m *uml.Model) { node(m, "A").DeleteTag("id") }},
		{name: "SetStereotype", edit: func(t *testing.T, m *uml.Model) { node(m, "B").SetStereotype("") }},
		{name: "AddConstraint", invisible: true, edit: func(t *testing.T, m *uml.Model) { node(m, "A").AddConstraint("x > 0") }},
		{name: "Model.AddVariable", edit: func(t *testing.T, m *uml.Model) {
			must(t, m.AddVariable(uml.Variable{Name: "y", Init: "3"}))
		}},
		{name: "Model.AddFunction", edit: func(t *testing.T, m *uml.Model) {
			must(t, m.AddFunction(uml.Function{Name: "G", Body: "1"}))
		}},
		{name: "Model.SetMain", edit: func(t *testing.T, m *uml.Model) { must(t, m.SetMain("sub")) }},
		{name: "ActionNode.SetCode", edit: func(t *testing.T, m *uml.Model) {
			node(m, "A").(*uml.ActionNode).SetCode("b = 2;")
		}},
		{name: "ActionNode.SetCostFunc", edit: func(t *testing.T, m *uml.Model) {
			node(m, "A").(*uml.ActionNode).SetCostFunc("x + 1")
		}},
		{name: "ActivityNode.SetBody", edit: func(t *testing.T, m *uml.Model) {
			node(m, "Act").(*uml.ActivityNode).SetBody("lbody")
		}},
		{name: "ActivityNode.SetCode", edit: func(t *testing.T, m *uml.Model) {
			node(m, "Act").(*uml.ActivityNode).SetCode("c = 3;")
		}},
		{name: "ActivityNode.SetCostFunc", edit: func(t *testing.T, m *uml.Model) {
			node(m, "Act").(*uml.ActivityNode).SetCostFunc("4")
		}},
		{name: "LoopNode.SetCount", edit: func(t *testing.T, m *uml.Model) {
			node(m, "L").(*uml.LoopNode).SetCount("7")
		}},
		{name: "LoopNode.SetBody", edit: func(t *testing.T, m *uml.Model) {
			node(m, "L").(*uml.LoopNode).SetBody("sub")
		}},
		{name: "LoopNode.SetVar", edit: func(t *testing.T, m *uml.Model) {
			node(m, "L").(*uml.LoopNode).SetVar("k")
		}},
		{name: "Edge.SetGuard", edit: func(t *testing.T, m *uml.Model) { edge(m, "dec").SetGuard("x > 2") }},
		{name: "Edge.SetWeight", edit: func(t *testing.T, m *uml.Model) { edge(m, "w").SetWeight(0.5) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p := New()
			m := memoBase(t)
			before := outputs(p, m)
			builds := 0
			probe := func() {
				m.Memo(probeKey{}, func() any { builds++; return nil })
			}
			probe()
			probe()
			if builds != 1 {
				t.Fatalf("memo built the probe %d times before the edit, want 1", builds)
			}

			row.edit(t, m)
			if probe(); builds != 2 {
				t.Errorf("the edit did not drop the memo")
			}
			doc, err := xmi.EncodeString(m)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := xmi.DecodeString(doc)
			if err != nil {
				t.Fatal(err)
			}
			got, want := outputs(p, m), outputs(New(), fresh)
			if got != want {
				t.Errorf("after the edit the model derives\n%s\nwhile a fresh decode of it derives\n%s", got, want)
			}
			if !row.invisible && got == before {
				t.Errorf("the edit changed none of the outputs, so this row shows nothing")
			}
		})
	}
}

// Check, TransformCpp, TransformGo and Estimate (with its own check) on
// one model walk the checker once: core's checker and the estimator's
// share the report kept in the model's memo.
func TestPipelineChecksOnce(t *testing.T) {
	p := New()
	m := memoBase(t)
	w0 := checker.Walks()
	if rep := p.Check(m); rep.HasErrors() {
		t.Fatalf("base model has errors: %v", rep.Diagnostics)
	}
	if _, err := p.TransformCpp(m); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TransformGo(m); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Estimate(Request{Model: m}); err != nil {
		t.Fatal(err)
	}
	if walks := checker.Walks() - w0; walks != 1 {
		t.Errorf("the pipeline walked the checker %d times, want 1", walks)
	}
}

// A report handed out is the caller's own: changing it does not change
// what the next Check returns.
func TestCheckReturnsACopy(t *testing.T) {
	p := New()
	m := memoBase(t)
	m.Main().NodeByName("A").SetStereotype("") // an unannotated action: one diagnostic
	first := p.Check(m)
	if len(first.Diagnostics) == 0 {
		t.Fatal("want at least one diagnostic")
	}
	want := slices.Clone(first.Diagnostics)
	first.Diagnostics[0].Message = "scribbled"
	first.Diagnostics = first.Diagnostics[:0]
	if got := p.Check(m).Diagnostics; !slices.Equal(got, want) {
		t.Errorf("second Check returned %v, want %v", got, want)
	}
}

// Concurrent readers of one cold model share one check and one set of
// derived flow graphs and region trees (run under -race in CI).
func TestConcurrentReadersShareOneCheck(t *testing.T) {
	m, err := modelgen.Generate(modelgen.Params{Seed: 3, Nodes: 400})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	want, _ := checker.New().CheckCounted(m)
	w0 := checker.Walks()
	const readers = 8
	reports := make([]*checker.Report, readers)
	cpps := make([]string, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, d := range m.Diagrams() {
				d.Regions()
				for _, n := range d.Nodes() {
					if n.Kind() == uml.KindDecision || n.Kind() == uml.KindFork {
						d.Convergence(n)
					}
				}
			}
			reports[i] = p.Check(m)
			cpp, err := p.TransformCpp(m)
			if err != nil {
				t.Error(err)
			}
			cpps[i] = cpp
		}(i)
	}
	wg.Wait()
	if walks := checker.Walks() - w0; walks != 1 {
		t.Errorf("%d readers walked the checker %d times, want 1", readers, walks)
	}
	for i := range reports {
		if !slices.Equal(reports[i].Diagnostics, want.Diagnostics) {
			t.Errorf("reader %d got a report that differs from an uncached walk", i)
		}
		if cpps[i] != cpps[0] {
			t.Errorf("reader %d rendered different C++", i)
		}
	}
}
