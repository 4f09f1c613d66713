package samples

import (
	"testing"

	"prophet/internal/uml"
)

func TestSampleShape(t *testing.T) {
	m := Sample()
	s := m.Stats()
	if s.Diagrams != 2 {
		t.Errorf("diagrams = %d, want 2", s.Diagrams)
	}
	if s.Actions != 5 { // A1, A2, A4, SA1, SA2
		t.Errorf("actions = %d, want 5", s.Actions)
	}
	if s.Functions != 5 {
		t.Errorf("functions = %d, want 5", s.Functions)
	}
	if m.MainName() != "main" {
		t.Errorf("main = %q", m.MainName())
	}
	for _, name := range []string{"FA1", "FA2", "FA4", "FSA1", "FSA2"} {
		if _, ok := m.Function(name); !ok {
			t.Errorf("missing function %s", name)
		}
	}
	a1 := m.Main().NodeByName("A1").(*uml.ActionNode)
	if a1.Code() == "" {
		t.Error("A1 should carry the Figure 7b code fragment")
	}
	sa := m.Main().NodeByName("SA").(*uml.ActivityNode)
	if sa.Body() != "SA" {
		t.Errorf("SA body = %q", sa.Body())
	}
	// Branch structure: decision with GV > 0 and else.
	dec := m.Main().NodeByName("decision")
	out := m.Main().Outgoing(dec.ID())
	if len(out) != 2 || out[0].Guard() != "GV > 0" || !out[1].IsElse() {
		t.Errorf("branch structure wrong")
	}
}

func TestKernel6Shape(t *testing.T) {
	m := Kernel6()
	if m.Stats().Actions != 1 {
		t.Errorf("collapsed kernel6 should have one action")
	}
	k := m.Main().NodeByName("Kernel6").(*uml.ActionNode)
	if k.CostFunc() != "FK6()" {
		t.Errorf("cost = %q", k.CostFunc())
	}
	if _, ok := m.Function("FK6"); !ok {
		t.Error("FK6 missing")
	}
}

func TestKernel6DetailedShape(t *testing.T) {
	m := Kernel6Detailed()
	if len(m.Diagrams()) != 4 { // main, outer, inner, body
		t.Errorf("diagrams = %d, want 4", len(m.Diagrams()))
	}
	var loops int
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			if n.Kind() == uml.KindLoop {
				loops++
			}
		}
	}
	if loops != 3 {
		t.Errorf("loop nodes = %d, want 3 (L, i, k)", loops)
	}
	w := m.DiagramByName("body").NodeByName("W").(*uml.ActionNode)
	if w.Code() == "" {
		t.Error("W should carry the kernel statement as code fragment")
	}
}

func TestSyntheticScales(t *testing.T) {
	m := Synthetic(3, 10)
	s := m.Stats()
	if s.Diagrams != 3 || s.Actions != 30 {
		t.Errorf("stats = %+v", s)
	}
	// Node names are globally unique, so the checker's perf-element-names
	// rule passes.
	seen := map[string]bool{}
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			if n.Kind() == uml.KindAction {
				if seen[n.Name()] {
					t.Fatalf("duplicate action name %q", n.Name())
				}
				seen[n.Name()] = true
			}
		}
	}
}

func TestJacobiShape(t *testing.T) {
	m := Jacobi()
	if len(m.Diagrams()) != 2 {
		t.Errorf("diagrams = %d, want 2 (main + step)", len(m.Diagrams()))
	}
	step := m.DiagramByName("step")
	if step == nil {
		t.Fatal("step diagram missing")
	}
	// Four guarded halo operations plus compute, residual, converge.
	wantStereo := map[string]string{
		"SendLeft": "mpi_send", "SendRight": "mpi_send",
		"RecvLeft": "mpi_recv", "RecvRight": "mpi_recv",
		"Converge": "mpi_reduce",
	}
	for name, st := range wantStereo {
		n := step.NodeByName(name)
		if n == nil || n.Stereotype() != st {
			t.Errorf("node %s: %v", name, n)
		}
	}
	lp := m.Main().NodeByName("Iterate").(*uml.LoopNode)
	if lp.Count() != "iters" || lp.Body() != "step" {
		t.Errorf("iterate loop wrong: %+v", lp)
	}
	for _, fn := range []string{"FCompute", "FResidual"} {
		if _, ok := m.Function(fn); !ok {
			t.Errorf("missing function %s", fn)
		}
	}
}

func TestOmpRegionShape(t *testing.T) {
	m := OmpRegion()
	par := m.Main().NodeByName("Par")
	if par == nil || par.Stereotype() != "omp_parallel" {
		t.Fatalf("Par node wrong: %v", par)
	}
	body := m.DiagramByName("body")
	if body == nil {
		t.Fatal("body diagram missing")
	}
	crit := body.NodeByName("Update")
	if crit == nil || crit.Stereotype() != "omp_critical" {
		t.Errorf("critical node wrong: %v", crit)
	}
	if crit.(*uml.ActionNode).CostFunc() != "critical" {
		t.Errorf("critical cost = %q", crit.(*uml.ActionNode).CostFunc())
	}
}

func TestPipelineShape(t *testing.T) {
	m := Pipeline(4)
	s := m.Stats()
	if s.Actions != 8 { // compute+send per stage
		t.Errorf("actions = %d, want 8", s.Actions)
	}
	send := m.Main().NodeByName("Send0")
	if send.Stereotype() != "mpi_send" {
		t.Errorf("Send0 stereotype = %q", send.Stereotype())
	}
	if v, ok := send.Tag("dest"); !ok || v == "" {
		t.Errorf("Send0 dest tag missing")
	}
}
