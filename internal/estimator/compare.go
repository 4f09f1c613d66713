package estimator

import (
	"fmt"
	"math"
)

// ComparePoint is one sample of a two-model comparison sweep.
type ComparePoint struct {
	Processes int
	// MakespanA and MakespanB are the two predictions.
	MakespanA float64
	MakespanB float64
	// Winner is "A", "B" or "tie".
	Winner string
}

// Comparison is the outcome of CompareModels.
type Comparison struct {
	NameA, NameB string
	Points       []ComparePoint
	// Crossovers lists the process counts where the winner flips relative
	// to the previous point.
	Crossovers []int
}

// CompareModels evaluates two alternative designs of the same program
// across process counts and reports who wins where — the "design
// decisions can be influenced without time-consuming modifications of
// large portions of an implemented program" use case of the paper's
// introduction. a and b are the two models' records (see NewRecord);
// both are evaluated under req's parameters and globals, and req.Model
// and req.Compiled are ignored.
func (e *Estimator) CompareModels(a, b *Compiled, req Request, counts []int) (*Comparison, error) {
	if a == nil || b == nil || a.model == nil || b.model == nil {
		return nil, fmt.Errorf("estimator: CompareModels needs two models")
	}
	reqA := req
	reqA.Model, reqA.Compiled = a.model, a
	ptsA, err := e.SweepProcesses(reqA, counts)
	if err != nil {
		return nil, fmt.Errorf("estimator: model %q: %w", a.model.Name(), err)
	}
	reqB := req
	reqB.Model, reqB.Compiled = b.model, b
	ptsB, err := e.SweepProcesses(reqB, counts)
	if err != nil {
		return nil, fmt.Errorf("estimator: model %q: %w", b.model.Name(), err)
	}
	cmp := &Comparison{NameA: a.model.Name(), NameB: b.model.Name()}
	prevWinner := ""
	for i := range counts {
		pt := ComparePoint{
			Processes: counts[i],
			MakespanA: ptsA[i].Makespan,
			MakespanB: ptsB[i].Makespan,
		}
		// Relative tolerance: accumulated floating-point error between two
		// evaluations of equivalent models must not manufacture a winner.
		tol := 1e-9 * math.Max(math.Max(pt.MakespanA, pt.MakespanB), 1e-300)
		switch {
		case pt.MakespanA < pt.MakespanB-tol:
			pt.Winner = "A"
		case pt.MakespanB < pt.MakespanA-tol:
			pt.Winner = "B"
		default:
			pt.Winner = "tie"
		}
		if prevWinner != "" && pt.Winner != "tie" && prevWinner != "tie" && pt.Winner != prevWinner {
			cmp.Crossovers = append(cmp.Crossovers, counts[i])
		}
		if pt.Winner != "tie" {
			prevWinner = pt.Winner
		}
		cmp.Points = append(cmp.Points, pt)
	}
	return cmp, nil
}
