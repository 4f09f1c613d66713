package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"prophet/internal/analytic"
	"prophet/internal/estimator"
	"prophet/internal/obs"
	"prophet/internal/uml"
)

// monteCarloW runs estimator.MonteCarlo batches of mcRuns runs on
// mcParallel workers over one single-process stochastic model, each
// batch with a fresh seed base. The front end runs once, in setup; the
// ops are the runner's fan-out, distribution sampling and direct-mode
// lowered execution.
type monteCarloW struct {
	refs     *refs
	model    *uml.Model
	globals  map[string]float64
	order    []int64
	mean     float64 // analytic makespan mean, for the CLT band
	variance float64
	e        *estimator.Estimator
}

func newMonteCarlo(r *refs, seed int64) (*monteCarloW, error) {
	m, g := mcModel()
	sol, err := analytic.Solve(m, analytic.Config{Globals: g})
	if err != nil {
		return nil, fmt.Errorf("analytic reference: %w", err)
	}
	return &monteCarloW{refs: r, model: m, globals: g, order: mcOrder(seed), mean: sol.Mean, variance: sol.Variance}, nil
}

func (w *monteCarloW) request(base int64, parallel int) estimator.Request {
	return estimator.Request{Model: w.model, Globals: w.globals, Seed: base, Parallel: parallel}
}

func (w *monteCarloW) setup() error {
	e := estimator.New()
	if _, err := e.MonteCarlo(w.request(mcHeldOutBase, mcParallel), mcRuns); err != nil {
		return err
	}
	w.e = e
	return nil
}

func (w *monteCarloW) teardown() { w.e = nil }

func (w *monteCarloW) measure(d time.Duration, traced bool, cal *calibrator) (*measurement, error) {
	m := &measurement{}
	spans := newSpanTally()
	h0, m0 := w.e.CacheStats()
	var (
		tracedOps             int
		plain, withTrace, seq []float64
		batchMs               float64
	)
	start, spent0 := time.Now(), cal.spent
	window := func() time.Duration { return time.Since(start) - (cal.spent - spent0) }
	for i := 0; window() < d; i++ {
		cal.tick()
		if i >= len(w.order) {
			m.notes = append(m.notes, fmt.Sprintf("montecarlo pool of %d seed bases exhausted", mcBases))
			break
		}
		base := w.order[i]
		// A traced run cycles through an untraced batch, a traced batch
		// and a sequential (Parallel=1) batch: the first two give the
		// tracing overhead, the first and third the parallel efficiency.
		kind := 0
		if traced {
			kind = i % 3
		}
		parallel := mcParallel
		if kind == 2 {
			parallel = 1
		}
		req := w.request(base, parallel)
		var tr *obs.Trace
		if kind == 1 {
			var root *obs.TraceSpan
			tr, root = obs.NewTrace("batch")
			req.Context = obs.ContextWithSpan(context.Background(), root)
		}
		c0 := cpuSeconds()
		t0 := time.Now()
		res, err := w.e.MonteCarlo(req, mcRuns)
		el := time.Since(t0)
		tr.Root().End()
		m.cpu += cpuSeconds() - c0
		if err == nil {
			err = checkBatch(mcBatchRef(w.refs, base), res, w.mean, w.variance)
		}
		m.record(err)
		m.latencies = append(m.latencies, ms(el))
		switch kind {
		case 0:
			plain = append(plain, ms(el))
		case 1:
			withTrace = append(withTrace, ms(el))
			tracedOps++
			batchMs += ms(el)
			spans.add(tr.Tree().Root)
		case 2:
			seq = append(seq, ms(el))
		}
	}
	m.window = window().Seconds()
	if traced {
		h1, m1 := w.e.CacheStats()
		m.layer = map[string]float64{}
		spans.fill(m.layer, tracedOps)
		m.layer["estimator.compile_cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
		m.layer["runner.batch_ms"] = ratio(batchMs, float64(tracedOps))
		m.layer["runner.run_us"] = ratio(spans.seconds["mc-run"]*1e6, float64(spans.count["mc-run"]))
		m.layer["runner.runs_per_op"] = ratio(float64(spans.count["mc-run"]), float64(tracedOps))
		m.layer["runner.parallel_efficiency"] = ratio(mean(seq), 2*mean(plain))
		m.layer["tracing_overhead_share"] = overhead(mean(withTrace), mean(plain))
		zeroLayers(m.layer)
	}
	return m, nil
}

// checkBatch compares a batch with the fold of its interp reference runs
// (bit for bit) and its mean with the analytic mean (within mcBand
// standard errors).
func checkBatch(want, got *estimator.MonteCarloResult, mu, variance float64) error {
	if got.Runs != want.Runs || got.Mean != want.Mean || got.Std != want.Std {
		return fmt.Errorf("batch mean/std %v/%v, interp reference %v/%v", got.Mean, got.Std, want.Mean, want.Std)
	}
	se := math.Sqrt(variance / float64(got.Runs))
	if math.Abs(got.Mean-mu) > mcBand*se {
		return fmt.Errorf("batch mean %v is more than %d standard errors (%v) from the analytic mean %v", got.Mean, mcBand, se, mu)
	}
	return nil
}
