package uml

import (
	"strconv"
	"testing"
)

// buildSized populates a model with hint-many elements through the public
// factories, exactly as xmi decode does.
func buildSized(t *testing.T, m *Model, actions, edges int) *Diagram {
	t.Helper()
	d, err := m.AddDiagram("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddControl(d, "", KindInitial); err != nil {
		t.Fatal(err)
	}
	prev := "e1"
	for i := 0; i < actions; i++ {
		a, err := m.AddAction(d, "", "A"+strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		a.SetStereotype("action+")
		if edges > 0 {
			if _, err := d.Connect(prev, a.ID(), ""); err != nil {
				t.Fatal(err)
			}
			edges--
		}
		prev = a.ID()
	}
	return d
}

func TestPreallocateSlabAllocation(t *testing.T) {
	m := NewModel("slab")
	m.Preallocate(SizeHint{Diagrams: 1, Actions: 8, Controls: 1, Edges: 8})
	d := buildSized(t, m, 8, 8)

	// All eight actions must live in one contiguous slab: handing out
	// &slab[i] pointers means consecutive nodes are exactly one element
	// apart in memory, and addNode must have registered those same
	// pointers (no copies).
	if got := len(m.arena.actions); got != 8 {
		t.Fatalf("slab holds %d actions, want 8", got)
	}
	for i := range m.arena.actions {
		want := &m.arena.actions[i]
		if got := d.Node(want.ID()); got != Node(want) {
			t.Fatalf("action %d: diagram holds %p, slab holds %p", i, got, want)
		}
	}
}

func TestArenaFallbackPastCapacity(t *testing.T) {
	m := NewModel("overflow")
	m.Preallocate(SizeHint{Diagrams: 1, Actions: 2, Controls: 1, Edges: 2})
	d := buildSized(t, m, 6, 2) // four actions past the slab cap

	if got := len(m.arena.actions); got != 2 {
		t.Fatalf("slab grew to %d, want it pinned at cap 2", got)
	}
	if got := len(d.Nodes()); got != 7 {
		t.Fatalf("diagram has %d nodes, want 7", got)
	}
	// Slab pointers must not have moved when the overflow happened.
	if got := d.Node(m.arena.actions[0].ID()); got != Node(&m.arena.actions[0]) {
		t.Fatal("slab pointer invalidated by overflow allocation")
	}
}

func TestUnpreallocatedModelStillWorks(t *testing.T) {
	m := NewModel("plain")
	d := buildSized(t, m, 4, 4)
	if got := len(d.Nodes()); got != 5 {
		t.Fatalf("got %d nodes, want 5", got)
	}
	if m.arena != nil {
		t.Fatal("arena materialized without Preallocate")
	}
}

func TestDiagramByNameIndexSurvivesRename(t *testing.T) {
	m := NewModel("renames")
	d1, err := m.AddDiagram("first")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddDiagram("second"); err != nil {
		t.Fatal(err)
	}
	if got := m.DiagramByName("first"); got != d1 {
		t.Fatal("indexed lookup missed first")
	}
	d1.SetName("renamed")
	if got := m.DiagramByName("first"); got != nil {
		t.Fatalf("stale index returned %q for old name", got.Name())
	}
	if got := m.byName["renamed"]; got != d1 {
		t.Fatal("rename did not update the index")
	}
}

// With two diagrams of one name (only a rename can make them), lookup
// returns the first in insertion order, and the other takes over when
// the first is renamed away.
func TestDiagramByNameNamesakes(t *testing.T) {
	m := NewModel("namesakes")
	d1, _ := m.AddDiagram("a")
	d2, _ := m.AddDiagram("b")
	d2.SetName("a")
	if got := m.DiagramByName("a"); got != d1 {
		t.Fatal("a later namesake displaced the first")
	}
	if got := m.DiagramByName("b"); got != nil {
		t.Fatal("old name still indexed")
	}
	d1.SetName("c")
	if got := m.DiagramByName("a"); got != d2 {
		t.Fatal("the namesake did not take over")
	}
	d1.SetName("a")
	if got := m.DiagramByName("a"); got != d1 {
		t.Fatal("the first diagram did not take its name back")
	}
}

func TestReserveKeepsExistingElements(t *testing.T) {
	m := NewModel("reserve")
	d, err := m.AddDiagram("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddControl(d, "", KindInitial); err != nil {
		t.Fatal(err)
	}
	d.Reserve(100, 100)
	if got := len(d.Nodes()); got != 1 {
		t.Fatalf("Reserve dropped nodes: %d, want 1", got)
	}
	if cap(d.nodes) < 101 {
		t.Fatalf("node capacity %d, want >= 101", cap(d.nodes))
	}
}
