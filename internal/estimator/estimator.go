// Package estimator implements the Performance Estimator of the paper's
// Figure 2: the component that "estimates the performance of a parallel
// and distributed program on a target computer architecture".
//
// Its Simulation Manager accepts the program's performance model (PMP) and
// the system parameters (SP), generates the machine model, integrates the
// two into the model of the whole computing system, evaluates it on the
// simulation engine, and emits the trace file (TF) together with summary
// statistics. Sweep helpers rerun the evaluation across parameter ranges,
// which is how the scalability experiments of EXPERIMENTS.md are produced.
package estimator

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"prophet/internal/checker"
	"prophet/internal/interp"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/profile"
	"prophet/internal/runner"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

// Request describes one evaluation.
type Request struct {
	// Model is the program's performance model.
	Model *uml.Model
	// Compiled, when non-nil, is Model's record (see NewRecord): every
	// entry point evaluates its program, preparing it first if no caller
	// has, instead of checking and compiling Model again. Without one, a
	// call compiles Model once for all of its runs.
	Compiled *Compiled
	// Params are the system parameters (SP). The zero value means one
	// process on one single-processor node.
	Params machine.SystemParams
	// Net overrides the interconnect parameters (nil = defaults).
	Net *machine.NetParams
	// Globals provides values for global model variables.
	Globals map[string]float64
	// TracePath, when non-empty, writes the trace file there.
	TracePath string
	// Policy selects the processor-contention discipline (FCFS default,
	// or processor sharing).
	Policy machine.Policy
	// Seed drives probabilistic branch selection (0 = default seed).
	Seed int64
	// SkipCheck bypasses the model checker (for models already checked).
	SkipCheck bool
	// MaxSteps bounds element executions per process (0 = default).
	MaxSteps int
	// Backend selects the execution engine: the flat lowered program
	// (default) or the tree-walking interpreter. Both produce
	// bit-identical results; interp remains the differential oracle.
	Backend Backend
	// Mode selects between the simulation engine (default) and the
	// closed-form analytic solver; ModeAuto tries analytic first and
	// falls back to simulation when the model is outside the analytic
	// class. An analytic estimate has Analytic set and carries no trace,
	// summary, or telemetry.
	Mode Mode

	// Telemetry enables simulated-time sampling during the run: the
	// resulting Estimate carries facility utilization, queue length,
	// mailbox depth, event-queue size and live-process series.
	Telemetry bool
	// SampleInterval is the simulated-time spacing between telemetry
	// samples (0 = sample whenever simulated time advances).
	SampleInterval float64
	// MaxSamples bounds the retained telemetry series (0 = 2048); longer
	// runs are decimated evenly.
	MaxSamples int
	// Parallel bounds the worker pool used by batch evaluations
	// (MonteCarlo, Sensitivity, sweeps, CompareModels): 0 means
	// GOMAXPROCS, 1 forces a sequential batch, N allows at most N
	// concurrent simulation runs. Batch results are bit-identical at
	// every setting — results are keyed by job index and aggregated in
	// index order, never in completion order.
	Parallel int
	// Context, when non-nil, cancels the evaluation early: a single
	// Estimate is interrupted cooperatively between simulation events,
	// and batch entry points additionally stop fanning out further runs.
	// The call returns promptly with an error wrapping the context's
	// cancellation cause. nil means Background (run to completion).
	Context context.Context
	// Spans, when non-nil, additionally receives every per-stage span
	// the estimator records (Estimate.Stages always has them too). Use
	// one recorder across repeated calls to aggregate a sweep.
	Spans *obs.SpanRecorder
	// Metrics, when non-nil, is updated with counters/gauges/histograms
	// describing the run (see docs/OBSERVABILITY.md for the schema).
	Metrics *obs.Registry
}

// Estimate is the outcome of one evaluation.
type Estimate struct {
	// Makespan is the predicted program execution time: the simulated
	// makespan, or the solved expectation when Analytic is set.
	Makespan float64
	// Variance is the closed-form variance of the makespan under the
	// model's distributions and branch weights. Only the analytic solver
	// fills it (a single simulation run observes one sample, not a
	// variance); it is 0 for deterministic models.
	Variance float64
	// Analytic reports that this estimate came from the closed-form
	// solver rather than a simulation run.
	Analytic bool
	// Trace is the full trace (TF).
	Trace *trace.Trace
	// Summary aggregates the trace per element and per process.
	Summary *trace.Summary
	// CPUUtilization per node.
	CPUUtilization []float64
	// Globals holds final global-variable values.
	Globals map[string]float64
	// Stages is the per-stage wall-clock breakdown of this evaluation
	// ("check", "compile", "simulate", "summarize", "trace-write").
	Stages []obs.Span
	// Telemetry carries the simulated-time series sampled during the run
	// (nil unless Request.Telemetry was set).
	Telemetry *Telemetry
}

// Telemetry is the simulated-time series collected by the sim engine's
// observer during one evaluation.
type Telemetry struct {
	// Samples is the retained (possibly decimated) sample series in time
	// order; the last sample reflects the end of the run.
	Samples []sim.Sample `json:"samples"`
	// EventCounts tallies process lifecycle events by kind ("spawn",
	// "run", "hold", "block", "done").
	EventCounts map[string]int64 `json:"event_counts,omitempty"`
}

// ctx resolves the request's batch context.
func (r Request) ctx() context.Context {
	if r.Context != nil {
		return r.Context
	}
	return context.Background()
}

// pool builds the runner options shared by every batch entry point: the
// request's worker bound plus its observability sinks.
func (r Request) pool(label string) runner.Options {
	return runner.Options{
		Workers: r.Parallel,
		Label:   label,
		Spans:   r.Spans,
		Metrics: r.Metrics,
	}
}

// Estimator evaluates performance models.
type Estimator struct {
	registry *profile.Registry
	checker  *checker.Checker

	// mu guards the record counters: cacheHits/cacheMisses count prepare
	// outcomes; metrics, when set, mirrors them into
	// estimator_cache_{hits,misses}_total.
	mu          sync.Mutex
	cacheHits   int64
	cacheMisses int64
	metrics     *obs.Registry
}

// New returns an estimator using the standard profile and default checker
// configuration.
func New() *Estimator {
	reg := profile.NewRegistry()
	return &Estimator{registry: reg, checker: checker.NewWith(reg, checker.Config{})}
}

// NewWith returns an estimator with explicit profile registry and checker
// configuration.
func NewWith(reg *profile.Registry, cfg checker.Config) *Estimator {
	return &Estimator{registry: reg, checker: checker.NewWith(reg, cfg)}
}

// stage opens one pipeline span in the estimate's own recorder, the
// caller-provided recorder (when set), and — when a trace span rides the
// request context — the request's trace tree. The returned context
// carries the trace child (it is req.Context unchanged when no trace is
// attached, nil when the request has none); the returned span is the
// trace child (nil without one, safe to Annotate either way); the
// returned func closes every span opened.
func stage(req Request, rec *obs.SpanRecorder, name string) (context.Context, *obs.TraceSpan, func()) {
	d1 := rec.Start(name)
	d2 := req.Spans.Start(name) // nil-safe
	ctx := req.Context
	var ts *obs.TraceSpan
	if ctx != nil {
		ctx, ts = obs.StartSpan(ctx, name)
	}
	return ctx, ts, func() { d1(); d2(); ts.End() }
}

// Estimate runs one evaluation: check, compile, simulate, summarize. A
// request carrying a record evaluates it as EstimateCompiled does, and
// SkipCheck does not apply to it.
func (e *Estimator) Estimate(req Request) (*Estimate, error) {
	if req.Compiled != nil {
		return e.EstimateCompiled(req.Compiled, req)
	}
	if req.Model == nil {
		return nil, fmt.Errorf("estimator: nil model")
	}
	// An already-done context returns before any work; mid-run expiry is
	// handled cooperatively inside the simulation (interp.Config.Context).
	if ctx := req.ctx(); ctx.Err() != nil {
		return nil, fmt.Errorf("estimator: %w", context.Cause(ctx))
	}
	rec := obs.NewSpanRecorder()
	if !req.SkipCheck {
		_, _, done := stage(req, rec, "check")
		rep := checkModel(e.checker, req.Model)
		done()
		if rep.HasErrors() {
			return nil, &CheckError{Model: req.Model.Name(), Report: rep}
		}
	}
	_, ts, done := stage(req, rec, "compile")
	pr, err := interp.Compile(req.Model, e.registry)
	ts.Annotate("backend", req.Backend.String())
	done()
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	return e.runMode(&Compiled{model: req.Model, prog: pr}, req, false, rec)
}

// Compile returns a prepared record of m, for repeated evaluation
// (parameter sweeps); it is lowered on its first lowered run and keeps
// that lowering for as long as the caller keeps it.
func (e *Estimator) Compile(m *uml.Model) (*Compiled, error) {
	c := NewRecord(m)
	if err := e.Prepare(c); err != nil {
		return nil, err
	}
	return c, nil
}

// Prepare checks and compiles c's model unless c is already prepared,
// and returns the preparation's error, which c keeps: however many
// callers ask at once, a record is prepared once.
func (e *Estimator) Prepare(c *Compiled) error {
	return e.prepare(context.Background(), c)
}

// prepare is Prepare under ctx. When ctx carries a trace span, the call
// that prepares records the real "check" and "compile" spans (the latter
// annotated cache=miss) and any other call records a "compile" span
// annotated cache=hit, so a request's span tree shows whether it paid.
// Each call counts one cache event: a miss when it prepared c, a hit
// when c was prepared already or by a concurrent caller it waited for.
func (e *Estimator) prepare(ctx context.Context, c *Compiled) error {
	built := false
	c.prepOnce.Do(func() {
		built = true
		c.prog, c.err = e.compile(ctx, c.model)
	})
	e.cacheEvent(!built)
	if !built {
		_, sp := obs.StartSpan(ctx, "compile")
		sp.Annotate("cache", "hit")
		sp.End()
	}
	return c.err
}

// record returns the request's record, prepared: req.Compiled, or a
// record of req.Model that lives for this call only.
func (e *Estimator) record(req Request) (*Compiled, error) {
	c := req.Compiled
	if c == nil {
		c = NewRecord(req.Model)
	}
	if err := e.prepare(req.ctx(), c); err != nil {
		return nil, err
	}
	return c, nil
}

// checkModel runs the Model Checker; tests substitute it to hold or
// count checks.
var checkModel = (*checker.Checker).Check

// compile checks then compiles m, recording "check" and "compile" spans
// into the trace riding ctx (no-ops without one).
func (e *Estimator) compile(ctx context.Context, m *uml.Model) (*interp.Program, error) {
	if m == nil {
		return nil, fmt.Errorf("estimator: nil model")
	}
	_, sp := obs.StartSpan(ctx, "check")
	rep := checkModel(e.checker, m)
	sp.End()
	if rep.HasErrors() {
		return nil, &CheckError{Model: m.Name(), Report: rep}
	}
	_, sp = obs.StartSpan(ctx, "compile")
	pr, err := interp.Compile(m, e.registry)
	sp.Annotate("cache", "miss")
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	return pr, nil
}

// SetMetrics installs a registry that receives the estimator's cache
// counters (estimator_cache_hits_total, estimator_cache_misses_total).
// Call it once, before the estimator is used concurrently.
func (e *Estimator) SetMetrics(reg *obs.Registry) {
	e.mu.Lock()
	e.metrics = reg
	e.mu.Unlock()
}

// CacheStats returns how many record preparations found the record
// already prepared (hits) and how many had to check and compile it
// (misses).
func (e *Estimator) CacheStats() (hits, misses int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cacheHits, e.cacheMisses
}

// cacheEvent counts one prepare outcome.
func (e *Estimator) cacheEvent(hit bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	name := "estimator_cache_misses_total"
	if hit {
		e.cacheHits++
		name = "estimator_cache_hits_total"
	} else {
		e.cacheMisses++
	}
	if e.metrics != nil {
		e.metrics.Counter(name).Inc()
	}
}

// EstimateCompiled evaluates a record, preparing it first if no caller
// has.
func (e *Estimator) EstimateCompiled(c *Compiled, req Request) (*Estimate, error) {
	if err := e.prepare(req.ctx(), c); err != nil {
		return nil, err
	}
	return e.runMode(c, req, false, obs.NewSpanRecorder())
}

// EstimateCompiledFast evaluates a record in fast mode:
// trace collection and summarization are skipped (Estimate.Trace and
// Estimate.Summary are nil), the mode the batch loops use internally.
// This is the hot path of the serving layer, which returns the makespan
// and utilization but never ships a trace.
func (e *Estimator) EstimateCompiledFast(c *Compiled, req Request) (*Estimate, error) {
	if err := e.prepare(req.ctx(), c); err != nil {
		return nil, err
	}
	return e.runMode(c, req, true, obs.NewSpanRecorder())
}

// runMode evaluates the program; fast mode skips trace collection and
// summarization (Estimate.Trace/Summary are nil), which is what the
// sweep and Monte Carlo loops want. rec accumulates the per-stage spans
// reported as Estimate.Stages.
func (e *Estimator) runMode(c *Compiled, req Request, fast bool, rec *obs.SpanRecorder) (*Estimate, error) {
	pr := c.prog
	if req.Mode != ModeSimulate {
		if est, err, handled := e.runAnalytic(pr, req, rec); handled {
			return est, err
		}
	}
	cfg := interp.Config{
		Params:   req.Params,
		Net:      req.Net,
		Globals:  req.Globals,
		Policy:   req.Policy,
		Seed:     req.Seed,
		MaxSteps: req.MaxSteps,
		NoTrace:  fast,
		Context:  req.Context,
	}
	// Only telemetry observes the engine: metrics come from the run's own
	// counters, so a metrics-only request keeps direct mode.
	var simRec *sim.Recorder
	if req.Telemetry {
		simRec = sim.NewRecorder(req.MaxSamples)
		cfg.Observer = simRec
		cfg.SampleInterval = req.SampleInterval
	}
	// Resolve the backend before the simulate stage so lowering (a cheap
	// one-time transform, kept with the compiled program) is visible as
	// its own stage.
	run := pr.Run
	if req.Backend.effective() == BackendLowered {
		_, ts, done := stage(req, rec, "lower")
		lp, built := c.lowered()
		if built {
			ts.Annotate("cache", "miss")
		} else {
			ts.Annotate("cache", "hit")
		}
		done()
		run = lp.Run
	}
	// The simulate stage's derived context carries the stage's trace span
	// into the backend, which nests the engine-level "sim" span (with
	// event counts) underneath it.
	simCtx, _, done := stage(req, rec, "simulate")
	cfg.Context = simCtx
	res, err := run(cfg)
	done()
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	est := &Estimate{
		Makespan:       res.Makespan,
		CPUUtilization: res.CPUUtilization,
		Globals:        res.Globals,
	}
	if simRec != nil {
		est.Telemetry = &Telemetry{
			Samples:     simRec.Samples(),
			EventCounts: simRec.EventCounts(),
		}
	}
	if fast {
		e.finish(req, est, rec, res, simRec)
		return est, nil
	}
	_, _, done = stage(req, rec, "summarize")
	sum, err := trace.Summarize(res.Trace)
	done()
	if err != nil {
		return nil, fmt.Errorf("estimator: summarize: %w", err)
	}
	if req.TracePath != "" {
		_, _, done = stage(req, rec, "trace-write")
		err := trace.Save(req.TracePath, res.Trace)
		done()
		if err != nil {
			return nil, fmt.Errorf("estimator: %w", err)
		}
	}
	est.Trace = res.Trace
	est.Summary = sum
	e.finish(req, est, rec, res, simRec)
	return est, nil
}

// finish attaches the recorded stages to the estimate and, when the
// request carries a metrics registry, publishes the run's metrics into
// it: res is the simulation run (nil for an analytic answer), simRec its
// telemetry recorder (nil unless requested).
func (e *Estimator) finish(req Request, est *Estimate, rec *obs.SpanRecorder, res *interp.Result, simRec *sim.Recorder) {
	est.Stages = rec.Spans()
	reg := req.Metrics
	if reg == nil {
		return
	}
	reg.Counter("estimator_runs_total").Inc()
	reg.Gauge("estimate_makespan_seconds").Set(est.Makespan)
	stageHist := reg.HistogramVec("estimate_stage_seconds",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}, "stage")
	stageGauge := reg.GaugeVec("estimate_stage_last_seconds", "stage")
	for _, s := range est.Stages {
		stageHist.With(s.Name).Observe(s.Seconds)
		stageGauge.With(s.Name).Set(s.Seconds)
	}
	// Labeled children are snapshotted in creation order, so publish map
	// entries in sorted key order to keep snapshots stable across runs.
	for node, u := range est.CPUUtilization {
		reg.GaugeVec("cpu_utilization", "node").With(fmt.Sprint(node)).Set(u)
	}
	if res == nil {
		return
	}
	events := reg.CounterVec("sim_events_total", "kind")
	counts := res.Stats.EventCounts().Map()
	for _, kind := range sortedKeys(counts) {
		events.With(kind).Add(counts[kind])
	}
	samples := reg.Counter("sim_samples_total")
	if simRec != nil {
		samples.Add(int64(len(est.Telemetry.Samples)))
	}
	util := reg.GaugeVec("facility_utilization", "facility")
	facilities := res.Stats.FacilityUtilization()
	for _, name := range sortedKeys(facilities) {
		util.With(name).Set(facilities[name])
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CheckError reports a model that failed the Model Checker.
type CheckError struct {
	Model  string
	Report *checker.Report
}

func (c *CheckError) Error() string {
	return fmt.Sprintf("estimator: model %q failed checking with %d error(s); first: %s",
		c.Model, c.Report.Count(checker.Error), firstError(c.Report))
}

func firstError(rep *checker.Report) string {
	for _, d := range rep.Diagnostics {
		if d.Severity == checker.Error {
			return d.String()
		}
	}
	return "(none)"
}

// SweepPoint is one sample of a scalability sweep.
type SweepPoint struct {
	// Processes used for this point.
	Processes int
	// Nodes used for this point.
	Nodes int
	// Makespan predicted.
	Makespan float64
	// Speedup relative to the first point of the sweep.
	Speedup float64
	// Efficiency = Speedup / (Processes/Processes0).
	Efficiency float64
}

// SweepProcesses evaluates the model across process counts, keeping the
// other parameters of req fixed, and derives speedup/efficiency relative
// to the first count. When req.Params.Nodes is 0 the node count scales
// with the processes (one node per ProcessorsPerNode processes).
func (e *Estimator) SweepProcesses(req Request, counts []int) ([]SweepPoint, error) {
	done := req.Spans.Start("compile")
	c, err := e.record(req)
	done()
	if err != nil {
		return nil, err
	}
	out, err := runner.Map(req.ctx(), len(counts), req.pool("sweep-point"),
		func(ctx context.Context, i int) (SweepPoint, error) {
			procs := counts[i]
			p := req.Params
			if p.ProcessorsPerNode == 0 {
				p.ProcessorsPerNode = 1
			}
			if p.Threads == 0 {
				p.Threads = 1
			}
			p.Processes = procs
			if req.Params.Nodes == 0 {
				p.Nodes = (procs + p.ProcessorsPerNode - 1) / p.ProcessorsPerNode
			}
			r := req
			r.Params = p
			// ctx is the runner's per-job context: cancelled when the batch
			// fails fast, and carrying the job's trace span when the request
			// is traced — so the simulate span nests under its sweep point.
			r.Context = ctx
			est, err := e.runMode(c, r, true, obs.NewSpanRecorder())
			if err != nil {
				return SweepPoint{}, fmt.Errorf("estimator: sweep at %d processes: %w", procs, err)
			}
			return SweepPoint{Processes: procs, Nodes: p.Nodes, Makespan: est.Makespan}, nil
		})
	if err != nil {
		return nil, err
	}
	// Speedup and efficiency are relative to the first point; derive them
	// after the fan-out so the derivation order is independent of worker
	// scheduling.
	DeriveSweepStats(out)
	return out, nil
}

// DeriveSweepStats fills the Speedup and Efficiency of every point
// relative to the first point of the slice, overwriting whatever was
// there. It is the derivation SweepProcesses applies after its fan-out,
// exported so a sharded coordinator that merges sub-range points — whose
// shard-local derivations were relative to the wrong first point — can
// re-derive over the merged slice with the exact same float operations
// and stay bit-identical to a single-node sweep.
func DeriveSweepStats(points []SweepPoint) {
	for i := range points {
		points[i].Speedup = 0
		points[i].Efficiency = 0
		if i == 0 {
			points[i].Speedup = 1
			points[i].Efficiency = 1
		} else if points[i].Makespan > 0 {
			points[i].Speedup = points[0].Makespan / points[i].Makespan
			points[i].Efficiency = points[i].Speedup / (float64(points[i].Processes) / float64(points[0].Processes))
		}
	}
}

// GlobalPoint is one sample of a global-variable sweep.
type GlobalPoint struct {
	Value    float64
	Makespan float64
}

// SweepGlobal evaluates the model across values of one global variable.
func (e *Estimator) SweepGlobal(req Request, name string, values []float64) ([]GlobalPoint, error) {
	done := req.Spans.Start("compile")
	c, err := e.record(req)
	done()
	if err != nil {
		return nil, err
	}
	return runner.Map(req.ctx(), len(values), req.pool("sweep-point"),
		func(ctx context.Context, i int) (GlobalPoint, error) {
			v := values[i]
			r := req
			r.Globals = make(map[string]float64, len(req.Globals)+1)
			for k, gv := range req.Globals {
				r.Globals[k] = gv
			}
			r.Globals[name] = v
			r.Context = ctx
			est, err := e.runMode(c, r, true, obs.NewSpanRecorder())
			if err != nil {
				return GlobalPoint{}, fmt.Errorf("estimator: sweep %s=%g: %w", name, v, err)
			}
			return GlobalPoint{Value: v, Makespan: est.Makespan}, nil
		})
}
