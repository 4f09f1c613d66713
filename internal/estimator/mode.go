package estimator

import (
	"fmt"

	"prophet/internal/analytic"
	"prophet/internal/interp"
	"prophet/internal/obs"
)

// Mode selects how an evaluation is answered: by running the simulation
// engine, or by the closed-form analytic solver (internal/analytic),
// which propagates exact makespan moments over the flow graph in
// microseconds with no engine.
type Mode int

const (
	// ModeSimulate runs the simulation engine (the default; zero value).
	ModeSimulate Mode = iota
	// ModeAnalytic forces the closed-form solver. Evaluation fails with
	// the solver's error when the model is outside the analytic class
	// (multi-process systems, messaging/threading stereotypes,
	// stochastic loop counts, state mutation in weighted branches).
	ModeAnalytic
	// ModeAuto tries the analytic solver when the model and parameters
	// pass the structural eligibility scan, and falls back to the
	// simulation engine when the solver declines.
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeAnalytic:
		return "analytic"
	case ModeAuto:
		return "auto"
	default:
		return "simulate"
	}
}

// ParseMode maps the external knob value to a Mode. The empty string
// selects simulation, the historical behavior.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "simulate":
		return ModeSimulate, nil
	case "analytic":
		return ModeAnalytic, nil
	case "auto":
		return ModeAuto, nil
	}
	return ModeSimulate, fmt.Errorf("estimator: unknown mode %q (want simulate, analytic or auto)", s)
}

// AnalyticError reports a mode=analytic request whose model is outside
// the closed-form class. It is the client's model/mode combination, not
// an estimator failure — servers map it alongside CheckError (422).
type AnalyticError struct{ Err error }

func (e *AnalyticError) Error() string { return "estimator: " + e.Err.Error() }
func (e *AnalyticError) Unwrap() error { return e.Err }

// runAnalytic answers the request with the closed-form solver. handled
// reports whether the request was answered (or definitively failed):
// when false — only possible in ModeAuto — the caller should fall back
// to the simulation engine.
//
// An analytic estimate has no trace, summary, or telemetry (there is no
// engine to observe); it carries the solved mean as Makespan, the
// solved Variance, and the final global values. The "analytic" stage
// span records the solve (outcome=solved|error) and the usual run
// metrics are published, plus estimator_analytic_solves_total or
// estimator_analytic_fallbacks_total.
func (e *Estimator) runAnalytic(pr *interp.Program, req Request, rec *obs.SpanRecorder) (*Estimate, error, bool) {
	m := pr.Model()
	if req.Mode == ModeAuto && !analytic.Eligible(m, req.Params) {
		if req.Metrics != nil {
			req.Metrics.Counter("estimator_analytic_fallbacks_total").Inc()
		}
		return nil, nil, false
	}
	_, ts, done := stage(req, rec, "analytic")
	res, err := analytic.Solve(m, analytic.Config{
		Params:   req.Params,
		Globals:  req.Globals,
		MaxSteps: req.MaxSteps,
	})
	if err != nil {
		ts.Annotate("outcome", "error")
		done()
		if req.Mode == ModeAuto {
			if req.Metrics != nil {
				req.Metrics.Counter("estimator_analytic_fallbacks_total").Inc()
			}
			return nil, nil, false
		}
		return nil, &AnalyticError{Err: err}, true
	}
	ts.Annotate("outcome", "solved")
	done()
	est := &Estimate{
		Makespan: res.Mean,
		Variance: res.Variance,
		Analytic: true,
		Globals:  res.Globals,
	}
	if req.Metrics != nil {
		req.Metrics.Counter("estimator_analytic_solves_total").Inc()
	}
	e.finish(req, est, rec, nil, nil)
	return est, nil, true
}
