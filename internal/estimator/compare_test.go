package estimator

import (
	"strconv"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/machine"
	"prophet/internal/uml"
)

// buildAlternative builds a serial-fraction model: total work W of which
// serialFrac does not parallelize (Amdahl).
func buildAlternative(t *testing.T, name string, serialFrac, overheadPerProc float64) *uml.Model {
	t.Helper()
	b := builder.New(name)
	b.Global("W", "double")
	b.Function("FSerial", nil, "W * "+fmtF(serialFrac))
	b.Function("FPar", nil, "W * "+fmtF(1-serialFrac)+" / processes")
	b.Function("FOver", nil, fmtF(overheadPerProc)+" * processes")
	d := b.Diagram("main")
	d.Initial()
	d.Action("Serial").Cost("FSerial()")
	d.Action("Par").Cost("FPar()")
	d.Action("Overhead").Cost("FOver()")
	d.Final()
	d.Chain("initial", "Serial", "Par", "Overhead", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fmtF renders a float as expression-language source.
func fmtF(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func TestCompareModelsCrossover(t *testing.T) {
	// A: low overhead but large serial fraction — wins at small P.
	// B: pays per-process overhead but parallelizes fully — wins at large P.
	a := buildAlternative(t, "mostly-serial", 0.3, 0.0)
	bm := buildAlternative(t, "fully-parallel", 0.0, 0.15)
	req := Request{
		Params:  machine.SystemParams{ProcessorsPerNode: 64, Threads: 1},
		Globals: map[string]float64{"W": 100},
	}
	cmp, err := New().CompareModels(NewRecord(a), NewRecord(bm), req, []int{1, 2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.NameA != "mostly-serial" || cmp.NameB != "fully-parallel" {
		t.Errorf("names = %q/%q", cmp.NameA, cmp.NameB)
	}
	if len(cmp.Points) != 6 {
		t.Fatalf("points = %d", len(cmp.Points))
	}
	// At P=1: A = 100, B = 100.15 -> A wins. At P=32: A = 30+2.19 = 32.2,
	// B = 3.125+4.8 = 7.9 -> B wins.
	if cmp.Points[0].Winner != "A" {
		t.Errorf("P=1 winner = %s, want A (%v vs %v)",
			cmp.Points[0].Winner, cmp.Points[0].MakespanA, cmp.Points[0].MakespanB)
	}
	last := cmp.Points[len(cmp.Points)-1]
	if last.Winner != "B" {
		t.Errorf("P=32 winner = %s, want B (%v vs %v)", last.Winner, last.MakespanA, last.MakespanB)
	}
	if len(cmp.Crossovers) == 0 {
		t.Errorf("expected a crossover, got none: %+v", cmp.Points)
	}
}

func TestCompareModelsValidation(t *testing.T) {
	m := buildAlternative(t, "x", 0.5, 0)
	if _, err := New().CompareModels(nil, NewRecord(m), Request{}, []int{1}); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := New().CompareModels(NewRecord(m), nil, Request{}, []int{1}); err == nil {
		t.Error("nil model should fail")
	}
}
