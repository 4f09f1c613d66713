package estimator

import (
	"fmt"
	"math"

	"prophet/internal/uml"
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
// introduction. Both models are evaluated under req's parameters and
// globals; req.Model and req.ModelKey are ignored. keyA and keyB are the
// models' compile-cache keys when the caller already holds their content
// addresses (see Request.ModelKey); an empty key hashes its model.
func (e *Estimator) CompareModels(a *uml.Model, keyA string, b *uml.Model, keyB string, req Request, counts []int) (*Comparison, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("estimator: CompareModels needs two models")
	}
	reqA := req
	reqA.Model, reqA.ModelKey = a, keyA
	ptsA, err := e.SweepProcesses(reqA, counts)
	if err != nil {
		return nil, fmt.Errorf("estimator: model %q: %w", a.Name(), err)
	}
	reqB := req
	reqB.Model, reqB.ModelKey = b, keyB
	ptsB, err := e.SweepProcesses(reqB, counts)
	if err != nil {
		return nil, fmt.Errorf("estimator: model %q: %w", b.Name(), err)
	}
	cmp := &Comparison{NameA: a.Name(), NameB: b.Name()}
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
