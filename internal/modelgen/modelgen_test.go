package modelgen

import (
	"math"
	"testing"

	"prophet/internal/checker"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

func TestDeterministic(t *testing.T) {
	p := Params{Seed: 7, Nodes: 2000}
	h1, err := xmi.Hash(MustGenerate(p))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := xmi.Hash(MustGenerate(p))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same params, different models: %s vs %s", h1, h2)
	}
	h3, err := xmi.Hash(MustGenerate(Params{Seed: 8, Nodes: 2000}))
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h3 {
		t.Fatal("different seeds produced identical models")
	}
}

func TestCheckerClean(t *testing.T) {
	for _, nodes := range []int{60, 1000, 10000} {
		m := MustGenerate(Params{Seed: 3, Nodes: nodes})
		rep := checker.New().Check(m)
		if len(rep.Diagnostics) != 0 {
			for i, d := range rep.Diagnostics {
				if i >= 10 {
					t.Logf("... and %d more", len(rep.Diagnostics)-10)
					break
				}
				t.Log(d)
			}
			t.Fatalf("Nodes=%d: generated model has %d diagnostics, want a clean report",
				nodes, len(rep.Diagnostics))
		}
	}
}

func TestAllNodeKindsReachable(t *testing.T) {
	m := MustGenerate(Params{Seed: 1, Nodes: 200})
	have := map[uml.Kind]bool{}
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			have[n.Kind()] = true
		}
	}
	for _, k := range []uml.Kind{
		uml.KindAction, uml.KindActivity, uml.KindLoop, uml.KindInitial,
		uml.KindFinal, uml.KindDecision, uml.KindMerge, uml.KindFork, uml.KindJoin,
	} {
		if !have[k] {
			t.Errorf("node kind %v unreachable in generated model", k)
		}
	}
	// Both guarded and weighted decisions must occur (they are distinct
	// checker-legal shapes even though both use KindDecision).
	guarded, weighted := false, false
	for _, d := range m.Diagrams() {
		for _, e := range d.Edges() {
			if e.Guard() != "" {
				guarded = true
			}
			if e.Weight() > 0 {
				weighted = true
			}
		}
	}
	if !guarded || !weighted {
		t.Errorf("guarded=%v weighted=%v, want both edge shapes", guarded, weighted)
	}
}

func TestSizeAccuracy(t *testing.T) {
	for _, target := range []int{1000, 10000, 100000} {
		m := MustGenerate(Params{Seed: 11, Nodes: target})
		got := m.Stats().Nodes
		if err := math.Abs(float64(got-target)) / float64(target); err > 0.10 {
			t.Errorf("Nodes=%d: generated %d nodes (%.1f%% off, want within 10%%)",
				target, got, err*100)
		}
	}
}

func TestSmallModels(t *testing.T) {
	for _, target := range []int{3, 10, 47} {
		m := MustGenerate(Params{Seed: 5, Nodes: target})
		if rep := checker.New().Check(m); rep.HasErrors() {
			for _, d := range rep.Diagnostics {
				t.Log(d)
			}
			t.Fatalf("Nodes=%d: generated model has errors", target)
		}
	}
	if _, err := Generate(Params{Seed: 1, Nodes: 2}); err == nil {
		t.Fatal("Nodes=2 should be rejected")
	}
}

func TestRoundTripsThroughXMI(t *testing.T) {
	m := MustGenerate(Params{Seed: 9, Nodes: 1500})
	s, err := xmi.EncodeString(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := xmi.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := xmi.EncodeString(m2)
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Fatal("generated model does not round-trip through XMI")
	}
}

func TestBoundedDiagramSize(t *testing.T) {
	m := MustGenerate(Params{Seed: 2, Nodes: 50000})
	maxNodes := 0
	for _, d := range m.Diagrams() {
		if n := len(d.Nodes()); n > maxNodes {
			maxNodes = n
		}
	}
	// Downstream convergence search is quadratic per diagram; the
	// generator must keep diagrams bounded no matter the total size.
	if maxNodes > 200 {
		t.Fatalf("largest diagram has %d nodes; generator should keep diagrams bounded", maxNodes)
	}
}
