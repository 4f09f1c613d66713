package interp

import (
	"fmt"
	"math"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

// weightedModel: a loop over a probabilistic branch — 70% fast path,
// 30% slow path.
func weightedModel(t *testing.T, iters int) *uml.Model {
	t.Helper()
	b := builder.New("weighted")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("L", fmt.Sprint(iters), "body")
	d.Final()
	d.Chain("initial", "L", "final")

	body := b.Diagram("body")
	body.Initial()
	body.Decision("dec")
	body.Action("Fast").Cost("1")
	body.Action("Slow").Cost("10")
	body.Merge("mrg")
	body.Final()
	body.Flow("initial", "dec")
	body.FlowWeighted("dec", "Fast", 0.7)
	body.FlowWeighted("dec", "Slow", 0.3)
	body.Flow("Fast", "mrg")
	body.Flow("Slow", "mrg")
	body.Flow("mrg", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWeightedBranchDistribution(t *testing.T) {
	m := weightedModel(t, 2000)
	res := run(t, m, Config{Seed: 42})
	sum, err := trace.Summarize(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	fast := sum.Elements["Fast"].Count
	slow := sum.Elements["Slow"].Count
	if fast+slow != 2000 {
		t.Fatalf("executions = %d, want 2000", fast+slow)
	}
	ratio := float64(fast) / 2000
	if math.Abs(ratio-0.7) > 0.05 {
		t.Errorf("fast fraction = %v, want ~0.7", ratio)
	}
	// Expected makespan ~ 2000 * (0.7*1 + 0.3*10) = 7400.
	if res.Makespan < 6500 || res.Makespan > 8500 {
		t.Errorf("makespan = %v, want ~7400", res.Makespan)
	}
}

func TestWeightedBranchSeedDeterminism(t *testing.T) {
	m := weightedModel(t, 100)
	a := run(t, m, Config{Seed: 7})
	b := run(t, m, Config{Seed: 7})
	if a.Makespan != b.Makespan {
		t.Errorf("same seed should reproduce: %v vs %v", a.Makespan, b.Makespan)
	}
	c := run(t, m, Config{Seed: 8})
	if a.Makespan == c.Makespan {
		t.Logf("different seeds produced equal makespans (possible but unlikely)")
	}
	// Default seed (0) also deterministic.
	d1 := run(t, m, Config{})
	d2 := run(t, m, Config{})
	if d1.Makespan != d2.Makespan {
		t.Errorf("default seed should reproduce")
	}
}

func TestWeightedBranchThreeWay(t *testing.T) {
	b := builder.New("w3")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A").Cost("1")
	d.Action("B").Cost("2")
	d.Action("C").Cost("3")
	d.Merge("mrg")
	d.Final()
	d.Flow("initial", "dec")
	d.FlowWeighted("dec", "A", 1)
	d.FlowWeighted("dec", "B", 1)
	d.FlowWeighted("dec", "C", 2)
	d.Chain("A", "mrg")
	d.Chain("B", "mrg")
	d.Chain("C", "mrg", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Any single run takes exactly one branch.
	res := run(t, m, Config{Seed: 3})
	if res.Makespan != 1 && res.Makespan != 2 && res.Makespan != 3 {
		t.Errorf("makespan = %v, want one of {1,2,3}", res.Makespan)
	}
}

func TestMixedWeightedGuardedRejected(t *testing.T) {
	m := uml.NewModel("bad")
	d, _ := m.AddDiagram("main")
	ini, _ := m.AddControl(d, "", uml.KindInitial)
	dec, _ := m.AddControl(d, "", uml.KindDecision)
	a, _ := m.AddAction(d, "", "A")
	a.SetStereotype("action+")
	bn, _ := m.AddAction(d, "", "B")
	bn.SetStereotype("action+")
	fin, _ := m.AddControl(d, "", uml.KindFinal)
	d.Connect(ini.ID(), dec.ID(), "")
	e1, _ := d.Connect(dec.ID(), a.ID(), "")
	e1.SetWeight(0.5)
	d.Connect(dec.ID(), bn.ID(), "GV > 0") // guarded: mixed!
	d.Connect(a.ID(), fin.ID(), "")
	d.Connect(bn.ID(), fin.ID(), "")
	m.AddVariable(uml.Variable{Name: "GV", Type: "double", Scope: uml.ScopeGlobal})
	pr, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Run(Config{}); err == nil {
		t.Error("mixed weighted/guarded decision should fail at run time")
	}
}

func TestBuilderFlowWeightedValidation(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Action("A")
	d.Action("B")
	d.FlowWeighted("A", "B", 0)
	if _, err := b.Build(); err == nil {
		t.Error("zero weight should be rejected")
	}
	b2 := builder.New("m")
	d2 := b2.Diagram("main")
	d2.Action("A")
	d2.FlowWeighted("A", "ghost", 1)
	if _, err := b2.Build(); err == nil {
		t.Error("unknown target should be rejected")
	}
	b3 := builder.New("m")
	d3 := b3.Diagram("main")
	d3.Action("B")
	d3.FlowWeighted("ghost", "B", 1)
	if _, err := b3.Build(); err == nil {
		t.Error("unknown source should be rejected")
	}
}
