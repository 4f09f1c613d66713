package estimator

import (
	"context"
	"fmt"
	"math"
	"sort"

	"prophet/internal/obs"
	"prophet/internal/runner"
)

// MonteCarloResult summarizes repeated stochastic evaluations.
type MonteCarloResult struct {
	Runs int
	Mean float64
	// Std is the sample standard deviation.
	Std float64
	Min float64
	Max float64
}

// MonteCarlo evaluates a model with probabilistic (weighted) branches
// across `runs` seeds and summarizes the makespan distribution. For
// deterministic models every run is identical and Std is 0.
//
// Runs are independent and fan out across Request.Parallel workers; the
// per-run seeds derive from Request.Seed and the run index (seed, seed+1,
// …, with seed 0 meaning 1), and the distribution is aggregated in run
// order, so the result is bit-identical at every worker count.
func (e *Estimator) MonteCarlo(req Request, runs int) (*MonteCarloResult, error) {
	makespans, err := e.MonteCarloMakespans(req, runs)
	if err != nil {
		return nil, err
	}
	return SummarizeMakespans(makespans), nil
}

// MonteCarloMakespans is the fan-out half of MonteCarlo: it returns the
// raw per-run makespans in run order (run i uses seed runner.Seeds(
// req.Seed, runs)[i]) without folding them into a distribution. This is
// the unit a sharded deployment ships around: a coordinator that
// decomposes a batch into sub-ranges (runner.Split), evaluates each with
// the sub-range's seed base (runner.SubSeed), concatenates the slices in
// range order, and folds once with SummarizeMakespans reproduces the
// single-node MonteCarlo result bit for bit.
func (e *Estimator) MonteCarloMakespans(req Request, runs int) ([]float64, error) {
	if runs < 1 {
		return nil, fmt.Errorf("estimator: monte carlo needs runs >= 1, got %d", runs)
	}
	c, err := e.record(req)
	if err != nil {
		return nil, err
	}
	seeds := runner.Seeds(req.Seed, runs)
	return runner.Map(req.ctx(), runs, req.pool("mc-run"),
		func(ctx context.Context, i int) (float64, error) {
			r := req
			r.Seed = seeds[i]
			r.Context = ctx
			est, err := e.runMode(c, r, true, obs.NewSpanRecorder())
			if err != nil {
				return 0, fmt.Errorf("estimator: monte carlo run %d: %w", i, err)
			}
			return est.Makespan, nil
		})
}

// SummarizeMakespans folds a makespan series into the Monte Carlo
// distribution summary. The fold runs in slice order with a fixed
// operation sequence, so every caller that presents the same series —
// single-node batches and sharded coordinators alike — produces the same
// floats bit for bit.
func SummarizeMakespans(makespans []float64) *MonteCarloResult {
	runs := len(makespans)
	res := &MonteCarloResult{Runs: runs}
	if runs == 0 {
		return res
	}
	var sum, sumSq float64
	for i, m := range makespans {
		sum += m
		sumSq += m * m
		if i == 0 || m < res.Min {
			res.Min = m
		}
		if i == 0 || m > res.Max {
			res.Max = m
		}
	}
	res.Mean = sum / float64(runs)
	if runs > 1 {
		variance := (sumSq - sum*sum/float64(runs)) / float64(runs-1)
		if variance > 0 {
			res.Std = math.Sqrt(variance)
		}
	}
	return res
}

// SensitivityPoint reports how strongly the predicted makespan reacts to
// one global model variable.
type SensitivityPoint struct {
	// Variable is the global's name.
	Variable string
	// Base is the variable's baseline value.
	Base float64
	// BaseMakespan is the prediction at the baseline.
	BaseMakespan float64
	// UpMakespan / DownMakespan are the predictions at Base*(1±Delta).
	UpMakespan   float64
	DownMakespan float64
	// Elasticity is the central-difference estimate of
	// d(log makespan) / d(log variable): 1.0 means linear influence,
	// 2.0 quadratic, ~0 means the variable does not matter.
	Elasticity float64
}

// SkippedVariable names a requested sensitivity variable that could not
// be perturbed, with the reason why.
type SkippedVariable struct {
	Name   string
	Reason string
}

func (s SkippedVariable) String() string { return s.Name + " (" + s.Reason + ")" }

// SensitivityResult carries the analysis: the elasticity points sorted by
// influence, plus every requested variable that had to be skipped.
type SensitivityResult struct {
	// Points holds one entry per analyzed variable, sorted by descending
	// |elasticity| (ties by name).
	Points []SensitivityPoint
	// Skipped lists requested variables that were not analyzed — unknown
	// names and zero baselines — in request order. Callers that silently
	// drop this field reproduce the old lossy behavior; surface it.
	Skipped []SkippedVariable
}

// Sensitivity perturbs each named global by ±delta (relative) around the
// values in req.Globals and reports the makespan elasticity of each — the
// model-based "which parameter should I tune" analysis that motivates
// performance modeling in the first place. Variables it cannot perturb —
// names absent from req.Globals, or zero baselines (relative perturbation
// is undefined there) — are reported in SensitivityResult.Skipped rather
// than silently dropped.
//
// The baseline and every perturbed evaluation are independent and fan
// out across Request.Parallel workers; results are keyed by job index,
// so the analysis is bit-identical at every worker count.
func (e *Estimator) Sensitivity(req Request, names []string, delta float64) (*SensitivityResult, error) {
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("estimator: sensitivity delta must be in (0,1), got %g", delta)
	}
	c, err := e.record(req)
	if err != nil {
		return nil, err
	}

	res := &SensitivityResult{}
	// Job plan: job 0 is the unperturbed baseline; each analyzable
	// variable contributes an up job and a down job.
	type job struct {
		name  string
		value float64
	}
	jobs := []job{{}} // baseline
	var vars []string
	var bases []float64
	for _, name := range names {
		bv, ok := req.Globals[name]
		switch {
		case !ok:
			res.Skipped = append(res.Skipped, SkippedVariable{Name: name, Reason: "not in request globals"})
		case bv == 0:
			res.Skipped = append(res.Skipped, SkippedVariable{Name: name, Reason: "zero baseline"})
		default:
			vars = append(vars, name)
			bases = append(bases, bv)
			jobs = append(jobs, job{name: name, value: bv * (1 + delta)})
			jobs = append(jobs, job{name: name, value: bv * (1 - delta)})
		}
	}

	makespans, err := runner.Map(req.ctx(), len(jobs), req.pool("sensitivity-run"),
		func(ctx context.Context, i int) (float64, error) {
			j := jobs[i]
			r := req
			r.Globals = make(map[string]float64, len(req.Globals)+1)
			for k, v := range req.Globals {
				r.Globals[k] = v
			}
			if j.name != "" {
				r.Globals[j.name] = j.value
			}
			r.Context = ctx
			est, err := e.runMode(c, r, true, obs.NewSpanRecorder())
			if err != nil {
				if i == 0 {
					return 0, fmt.Errorf("estimator: sensitivity baseline: %w", err)
				}
				dir := "up"
				if i%2 == 0 {
					dir = "down"
				}
				return 0, fmt.Errorf("estimator: sensitivity %s %s: %w", j.name, dir, err)
			}
			return est.Makespan, nil
		})
	if err != nil {
		return nil, err
	}

	base := makespans[0]
	for vi, name := range vars {
		up := makespans[1+2*vi]
		down := makespans[2+2*vi]
		pt := SensitivityPoint{
			Variable:     name,
			Base:         bases[vi],
			BaseMakespan: base,
			UpMakespan:   up,
			DownMakespan: down,
		}
		if base > 0 {
			// Central difference of log(makespan) wrt log(variable).
			pt.Elasticity = (up - down) / (2 * delta * base)
		}
		res.Points = append(res.Points, pt)
	}
	sort.Slice(res.Points, func(i, j int) bool {
		ai := math.Abs(res.Points[i].Elasticity)
		aj := math.Abs(res.Points[j].Elasticity)
		if ai != aj {
			return ai > aj
		}
		return res.Points[i].Variable < res.Points[j].Variable
	})
	return res, nil
}
