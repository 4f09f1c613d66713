// Package server is prophetd's HTTP serving layer: a hardened front-end
// over the Performance Estimator that turns one-shot batch evaluation
// into a long-running estimation service.
//
// The contract it adds on top of the estimator:
//
//   - per-request deadlines, enforced cooperatively inside the simulation
//     at event granularity (interp.Config.Context), so a request whose
//     deadline expires mid-run returns promptly with a context error
//   - admission control: a bounded number of in-flight evaluations plus a
//     bounded wait queue; beyond that, requests are shed with
//     503 + Retry-After instead of queueing unboundedly
//   - a content-addressed model store (POST /v1/models) whose ids are
//     canonical-XMI content hashes and whose entries are estimator
//     records, so repeated requests for the same model content check,
//     compile and lower it once
//   - graceful drain: Drain() flips /healthz to 503 and rejects new
//     evaluations while in-flight work completes (cmd/prophetd wires
//     this to SIGTERM via http.Server.Shutdown)
//   - observability: request counters, latency histograms, queue-depth
//     and in-flight gauges, and the estimator's cache hit/miss counters,
//     all served from /metrics in the obs text format
//
// See docs/SERVING.md for the full API reference.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"prophet/internal/estimator"
	"prophet/internal/obs"
	"prophet/internal/sim"
	"prophet/internal/xmi"
)

// Config parameterizes a Server. The zero value serves with sensible
// defaults (see withDefaults).
type Config struct {
	// MaxInFlight bounds concurrently running evaluations
	// (0 = GOMAXPROCS). Each evaluation is single-threaded, so this is
	// also the CPU bound.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an evaluation slot
	// (0 = 2*MaxInFlight). Negative means no queue: saturation rejects
	// immediately.
	MaxQueue int
	// QueueWait bounds how long a request may wait for a slot before
	// being shed (0 = 2s).
	QueueWait time.Duration
	// DefaultTimeout is the per-request evaluation deadline applied when
	// the request doesn't carry timeout_ms (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (0 = 5m).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxModels bounds the content-addressed model store, and with it the
	// prepared programs; beyond it the oldest models are evicted
	// (0 = 1024).
	MaxModels int
	// Registry receives the server's metrics (nil = a fresh registry).
	Registry *obs.Registry
	// Estimator evaluates requests (nil = estimator.New()).
	Estimator *estimator.Estimator
	// Logger receives one structured line per request, each carrying the
	// request's trace ID (nil = discard).
	Logger *slog.Logger
	// TraceRingSize bounds the recent request traces retained for
	// GET /v1/traces/{id} (0 = 256).
	TraceRingSize int
	// ResultCache bounds the canonical-request-key result cache, in
	// entries. 0 (the zero value) disables the cache and the singleflight
	// dedup with it; cmd/prophetd enables it by default (-result-cache).
	ResultCache int
	// Workers lists prophetd base URLs ("http://host:port") to fan sweep
	// and Monte Carlo sub-ranges across. Empty means every evaluation
	// runs in-process.
	Workers []string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxInFlight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxModels <= 0 {
		c.MaxModels = 1024
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Estimator == nil {
		c.Estimator = estimator.New()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the estimation service. Create with New, mount via Handler.
type Server struct {
	cfg      Config
	est      *estimator.Estimator
	reg      *obs.Registry
	store    *modelStore
	adm      *admission
	cache    *resultCache // nil when Config.ResultCache is 0
	pool     *shardPool   // nil when Config.Workers is empty
	mux      *http.ServeMux
	log      *slog.Logger
	traces   *obs.TraceRing
	start    time.Time
	draining atomic.Bool

	// requests/latency instrument every route.
	requests *obs.CounterVec
	latency  *obs.HistogramVec

	// hookAdmitted, when non-nil, runs after a request is admitted and
	// before it evaluates — a test seam for holding a slot open.
	hookAdmitted func()
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		est:    cfg.Estimator,
		reg:    cfg.Registry,
		store:  newModelStore(cfg.MaxModels, cfg.Registry.Gauge("model_store_models")),
		adm:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait, cfg.Registry),
		mux:    http.NewServeMux(),
		log:    cfg.Logger,
		traces: obs.NewTraceRing(cfg.TraceRingSize),
		start:  time.Now(),
	}
	if cfg.ResultCache > 0 {
		s.cache = newResultCache(cfg.ResultCache, cfg.Registry)
	}
	if len(cfg.Workers) > 0 {
		s.pool = newShardPool(cfg.Workers, cfg.Registry)
	}
	s.est.SetMetrics(s.reg)
	s.requests = s.reg.CounterVec("http_requests_total", "route", "code")
	s.latency = s.reg.HistogramVec("http_request_seconds",
		[]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60}, "route")
	// Materialize every shed-reason series at 0 so dashboards and the
	// smoke harness see the counters before the first rejection.
	for _, reason := range []string{"queue_full", "queue_timeout", "client_gone"} {
		s.adm.rejected.With(reason)
	}
	s.registerHelp()
	s.mux.HandleFunc("POST /v1/models", s.route("models", s.handleModels))
	s.mux.HandleFunc("POST /v1/estimate", s.route("estimate", s.handleEstimate))
	s.mux.HandleFunc("POST /v1/sweep", s.route("sweep", s.handleSweep))
	s.mux.HandleFunc("POST /v1/montecarlo", s.route("montecarlo", s.handleMonteCarlo))
	s.mux.HandleFunc("POST /v1/compare", s.route("compare", s.handleCompare))
	s.mux.HandleFunc("GET /v1/traces", s.route("traces", s.handleTraces))
	s.mux.HandleFunc("GET /v1/traces/{id}", s.route("trace", s.handleTrace))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain puts the server into drain mode: /healthz turns 503 so load
// balancers stop routing here, and new evaluations are shed, while
// in-flight work keeps running. cmd/prophetd calls this on SIGTERM just
// before http.Server.Shutdown, which then waits for in-flight requests.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// route instruments a handler: the body-size bound, the request counter
// and latency histogram, the per-request trace (on evaluation routes) and
// one structured log line.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		tr, r := s.startTrace(name, sw, r)
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		s.finishTrace(tr, sw.code)
		s.latency.With(name).Observe(d.Seconds())
		s.requests.With(name, fmt.Sprint(sw.code)).Inc()
		s.logRequest(r, name, sw.code, d, tr.ID())
	}
}

// resultCacheHeader annotates every evaluation response with how the
// result cache handled it: hit, miss, inflight, or bypass.
const resultCacheHeader = "X-Result-Cache"

// evalResponse is implemented by every evaluation response body. The
// trace fields are attached only on bypass paths: cached bodies must be
// bit-identical regardless of which request produced them, so they omit
// trace_id/trace and clients use the per-request X-Trace-Id header.
type evalResponse interface {
	traceFields() (*string, **obs.TraceTree)
}

// runAdmitted runs one evaluation under admission control and the
// request deadline: it waits (boundedly) for an evaluation slot, applies
// the request's clamped deadline, and calls run. It writes nothing to
// the response — every failure, from saturation to cancellation while
// queued to evaluation errors, comes back as an error for the caller (or
// the singleflight leader) to map.
func (s *Server) runAdmitted(r *http.Request, timeoutMS int64, run func(ctx context.Context) (evalResponse, error)) (evalResponse, error) {
	// The admission span measures slot wait; a request that never queues
	// closes it in microseconds, a shed one records why.
	qs := obs.SpanFromContext(r.Context()).StartChild("admission")
	err := s.adm.acquire(r.Context())
	if err != nil {
		qs.Annotate("outcome", "shed")
		qs.Annotate("error", err.Error())
	}
	qs.End()
	if err != nil {
		return nil, err
	}
	defer s.adm.release()
	if s.hookAdmitted != nil {
		s.hookAdmitted()
	}
	ctx, cancel := s.evalContext(r, timeoutMS)
	defer cancel()
	return run(ctx)
}

// writeRunError maps an evaluation-path failure to its response:
// saturation to 503 + Retry-After (shedding, not failing), everything
// else through the evaluation-error table. A 499 for a client that went
// away while queued falls out of the context-cancellation case.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	if errors.Is(err, errSaturated) {
		s.unavailable(w, "server saturated: in-flight and queue limits reached")
		return
	}
	writeEvalError(w, err)
}

// serveEval is the execution phase shared by every evaluation route:
// through the result cache and singleflight when enabled, always under
// admission control and the request deadline. key is the request's
// canonical key; run performs the evaluation and returns the response
// body value.
//
// Cache hits are served without touching admission — they are a map
// lookup and two writes, and shedding them would protect nothing. A
// singleflight leader holds one slot on behalf of every coalesced
// waiter, so N concurrent identical requests cost one slot and one
// simulation.
func (s *Server) serveEval(w http.ResponseWriter, r *http.Request, key string, timeoutMS int64, run func(ctx context.Context) (evalResponse, error)) {
	// Bypass path: cache disabled, or the client asked for an inline span
	// tree (?trace=1) — a per-request body that must never be shared.
	if s.cache == nil || wantTrace(r) {
		if s.cache != nil {
			s.cache.bypass()
			w.Header().Set(resultCacheHeader, outcomeBypass)
		}
		resp, err := s.runAdmitted(r, timeoutMS, run)
		if err != nil {
			s.writeRunError(w, err)
			return
		}
		id, tree := resp.traceFields()
		s.attachTrace(r, id, tree)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res, outcome, err := s.cache.do(r.Context(), key, func() (*cachedResult, bool, error) {
		resp, err := s.runAdmitted(r, timeoutMS, run)
		if err != nil {
			if st := evalStatus(err); st == http.StatusUnprocessableEntity || st == http.StatusNotFound {
				// A model error is deterministic — every identical request
				// fails identically — so concurrent waiters share it. It is
				// still not stored: a fixed model uploads under a new
				// content hash anyway, and the failure is cheap to redo.
				return &cachedResult{status: st, body: marshalBody(ErrorResponse{Error: err.Error()})}, false, nil
			}
			// Saturation, cancellation, deadline expiry: the leader's
			// private outcome. Waiters wake and retry rather than inherit
			// a failure that says nothing about their own request.
			return nil, false, err
		}
		// Cached bodies omit trace_id/trace so every request served from
		// this key — leader, coalesced waiter, later hit — reads identical
		// bytes. X-Trace-Id stays per-request in the response header.
		return &cachedResult{status: http.StatusOK, body: marshalBody(resp)}, true, nil
	})
	obs.SpanFromContext(r.Context()).Annotate("result_cache", outcome)
	w.Header().Set(resultCacheHeader, outcome)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// marshalBody encodes v exactly as writeJSON does (two-space indent,
// trailing newline), so cached bytes and directly-written bytes are
// byte-for-byte interchangeable.
func marshalBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// InvalidateCache drops every stored result-cache entry (a no-op when
// caching is disabled). In-flight singleflight evaluations are
// unaffected: they complete, publish to their coalesced waiters, and —
// if storable — repopulate the cache.
func (s *Server) InvalidateCache() {
	if s.cache != nil {
		s.cache.invalidate()
	}
}

// unavailable sheds a request with 503 and a Retry-After hint.
func (s *Server) unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", fmt.Sprint(s.adm.retryAfter()))
	writeError(w, http.StatusServiceUnavailable, msg)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

// decodeJSON parses the request body into v, rejecting unknown fields so
// typos ("modelid") fail loudly instead of evaluating defaults.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the document is a malformed request too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("request body must be a single JSON document")
	}
	return nil
}

// register decodes an XMI document (under a "parse" span on the request
// trace), content-addresses it and stores its record. POST /v1/models and
// inline model_xmi both register through it, so a document already
// stored gets its stored record, with whatever that record has prepared.
func (s *Server) register(ctx context.Context, doc string) (string, *estimator.Compiled, error) {
	_, sp := obs.StartSpan(ctx, "parse")
	sp.Annotate("bytes", fmt.Sprint(len(doc)))
	m, err := xmi.DecodeString(doc)
	sp.End()
	if err != nil {
		return "", nil, fmt.Errorf("decode model: %v", err)
	}
	id, err := xmi.Hash(m)
	if err != nil {
		return "", nil, fmt.Errorf("hash model: %v", err)
	}
	return id, s.store.put(id, m), nil
}

// resolveModel materializes a ModelRef as its stored record and id:
// inline XMI is registered, ids are looked up in the store. The returned
// status is the HTTP code to report on error.
func (s *Server) resolveModel(ctx context.Context, ref ModelRef) (*estimator.Compiled, string, int, error) {
	switch {
	case ref.ModelXMI != "" && ref.ModelID != "":
		return nil, "", http.StatusBadRequest, errors.New("set model_id or model_xmi, not both")
	case ref.ModelXMI != "":
		id, c, err := s.register(ctx, ref.ModelXMI)
		if err != nil {
			return nil, "", http.StatusBadRequest, fmt.Errorf("model_xmi: %v", err)
		}
		return c, id, 0, nil
	case ref.ModelID != "":
		_, sp := obs.StartSpan(ctx, "parse")
		c, ok := s.store.get(ref.ModelID)
		sp.Annotate("cache", boolAttr(ok, "hit", "miss"))
		sp.End()
		if !ok {
			return nil, "", http.StatusNotFound, fmt.Errorf("unknown model %q (upload it via POST /v1/models)", ref.ModelID)
		}
		return c, ref.ModelID, 0, nil
	}
	return nil, "", http.StatusBadRequest, errors.New("request needs model_id or model_xmi")
}

// boolAttr picks a span attribute value from a condition.
func boolAttr(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}

// evalContext derives the evaluation context: the client's connection
// context bounded by the request's (clamped) or the server's default
// deadline.
func (s *Server) evalContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// evalStatus maps an evaluation failure to its HTTP status: model errors
// are the client's (422 — the model failed checking, a flow error
// surfaced at runtime, the simulated program deadlocked, or a
// mode=analytic model fell outside the closed-form class), deadline
// expiry is 504, client cancellation 499, shard sub-job failures
// reproduce the worker's client errors and turn worker/transport
// failures into 502, and anything else is 500.
func evalStatus(err error) int {
	var ce *estimator.CheckError
	var ae *estimator.AnalyticError
	var pe *sim.ProcessError
	var de *sim.DeadlockError
	var ue *upstreamError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	case errors.As(err, &ce), errors.As(err, &ae), errors.As(err, &pe), errors.As(err, &de):
		return http.StatusUnprocessableEntity
	case errors.As(err, &ue):
		if ue.Status >= 400 && ue.Status < 500 {
			return ue.Status
		}
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

func writeEvalError(w http.ResponseWriter, err error) {
	writeError(w, evalStatus(err), err.Error())
}

// buildRequest converts the wire request to an estimator.Request on the
// stored record c, bound to ctx and the server's metrics registry, so
// every evaluation feeds the per-stage latency histograms /metrics
// serves.
func (s *Server) buildRequest(ctx context.Context, c *estimator.Compiled, er *EstimateRequest) (estimator.Request, error) {
	pol, err := policyOf(er.Policy)
	if err != nil {
		return estimator.Request{}, err
	}
	backend, err := estimator.ParseBackend(er.Backend)
	if err != nil {
		return estimator.Request{}, err
	}
	mode, err := estimator.ParseMode(er.Mode)
	if err != nil {
		return estimator.Request{}, err
	}
	sp := er.Params.toMachine()
	if err := sp.Validate(); err != nil {
		return estimator.Request{}, err
	}
	return estimator.Request{
		Model:     c.Model(),
		Compiled:  c,
		Params:    sp,
		Globals:   er.Globals,
		Seed:      er.Seed,
		Policy:    pol,
		MaxSteps:  er.MaxSteps,
		Backend:   backend,
		Mode:      mode,
		Telemetry: er.Telemetry,
		Context:   ctx,
		Metrics:   s.reg,
	}, nil
}

// handleModels registers a model: the body is the XMI document itself
// (no JSON envelope), the response its content address.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	id, c, err := s.register(r.Context(), string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ModelResponse{ID: id, Name: c.Model().Name()})
}

// validateEval rejects the statically-invalid parts of an evaluation
// request — unknown policy, unknown backend, bad machine params — before
// the request is keyed or admitted, so 400s never consume an admission
// slot or a singleflight flight.
func validateEval(policy, backend string, params *Params) error {
	if _, err := policyOf(policy); err != nil {
		return err
	}
	if _, err := estimator.ParseBackend(backend); err != nil {
		return err
	}
	return params.toMachine().Validate()
}

// validateMode rejects an unknown evaluation mode with the same 400
// treatment; only /v1/estimate carries a mode.
func validateMode(mode string) error {
	_, err := estimator.ParseMode(mode)
	return err
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, "server is draining")
		return
	}
	var er EstimateRequest
	if err := decodeJSON(r, &er); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	c, id, code, err := s.resolveModel(r.Context(), er.ModelRef)
	if err != nil {
		writeError(w, code, err.Error())
		return
	}
	if err := validateEval(er.Policy, er.Backend, er.Params); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := validateMode(er.Mode); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveEval(w, r, estimateKey(id, &er), er.TimeoutMS, func(ctx context.Context) (evalResponse, error) {
		req, err := s.buildRequest(ctx, c, &er)
		if err != nil {
			return nil, err
		}
		var est *estimator.Estimate
		if er.Summary {
			est, err = s.est.EstimateCompiled(c, req)
		} else {
			est, err = s.est.EstimateCompiledFast(c, req)
		}
		if err != nil {
			return nil, err
		}
		resp := &EstimateResponse{
			ModelID:        id,
			Makespan:       est.Makespan,
			Analytic:       est.Analytic,
			Variance:       est.Variance,
			CPUUtilization: est.CPUUtilization,
			Globals:        est.Globals,
			Stages:         stagesOf(est),
			Summary:        est.Summary,
		}
		if est.Telemetry != nil {
			resp.EventCounts = est.Telemetry.EventCounts
		}
		return resp, nil
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, "server is draining")
		return
	}
	var sr SweepRequest
	if err := decodeJSON(r, &sr); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if (len(sr.Processes) == 0) == (sr.Global == nil) {
		writeError(w, http.StatusBadRequest, "set exactly one of processes or global")
		return
	}
	if sr.Global != nil && (sr.Global.Name == "" || len(sr.Global.Values) == 0) {
		writeError(w, http.StatusBadRequest, "global sweep needs name and values")
		return
	}
	c, id, code, err := s.resolveModel(r.Context(), sr.ModelRef)
	if err != nil {
		writeError(w, code, err.Error())
		return
	}
	if err := validateEval(sr.Policy, sr.Backend, sr.Params); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sharded := s.pool != nil && !isShardJob(r)
	s.serveEval(w, r, sweepKey(id, &sr), sr.TimeoutMS, func(ctx context.Context) (evalResponse, error) {
		if sharded {
			return s.shardSweep(ctx, id, c.Model(), &sr)
		}
		req, err := s.buildRequest(ctx, c, &sr.EstimateRequest)
		if err != nil {
			return nil, err
		}
		// The sweep fans out on the runner inside one admission slot; keep
		// it sequential so a single sweep cannot monopolize every core.
		req.Parallel = 1
		resp := &SweepResponse{ModelID: id}
		if len(sr.Processes) > 0 {
			pts, err := s.est.SweepProcesses(req, sr.Processes)
			if err != nil {
				return nil, err
			}
			for _, p := range pts {
				resp.Points = append(resp.Points, SweepPoint(p))
			}
		} else {
			pts, err := s.est.SweepGlobal(req, sr.Global.Name, sr.Global.Values)
			if err != nil {
				return nil, err
			}
			for _, p := range pts {
				resp.GlobalPoints = append(resp.GlobalPoints, GlobalPoint(p))
			}
		}
		return resp, nil
	})
}

func (s *Server) handleMonteCarlo(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, "server is draining")
		return
	}
	var mr MonteCarloRequest
	if err := decodeJSON(r, &mr); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if mr.Runs < 1 {
		writeError(w, http.StatusBadRequest, "monte carlo needs runs >= 1")
		return
	}
	c, id, code, err := s.resolveModel(r.Context(), mr.ModelRef)
	if err != nil {
		writeError(w, code, err.Error())
		return
	}
	if err := validateEval(mr.Policy, mr.Backend, mr.Params); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sharded := s.pool != nil && !isShardJob(r)
	s.serveEval(w, r, monteCarloKey(id, &mr), mr.TimeoutMS, func(ctx context.Context) (evalResponse, error) {
		var makespans []float64
		if sharded {
			makespans, err = s.shardMonteCarlo(ctx, id, c.Model(), &mr)
		} else {
			req, err2 := s.buildRequest(ctx, c, &EstimateRequest{
				Params: mr.Params, Globals: mr.Globals, Seed: mr.Seed,
				Policy: mr.Policy, MaxSteps: mr.MaxSteps, Backend: mr.Backend,
			})
			if err2 != nil {
				return nil, err2
			}
			req.Parallel = 1
			makespans, err = s.est.MonteCarloMakespans(req, mr.Runs)
		}
		if err != nil {
			return nil, err
		}
		sum := estimator.SummarizeMakespans(makespans)
		resp := &MonteCarloResponse{
			ModelID: id, Runs: sum.Runs,
			Mean: sum.Mean, Std: sum.Std, Min: sum.Min, Max: sum.Max,
		}
		if mr.IncludeMakespans {
			resp.Makespans = makespans
		}
		return resp, nil
	})
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, "server is draining")
		return
	}
	var cr CompareRequest
	if err := decodeJSON(r, &cr); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(cr.Processes) == 0 {
		writeError(w, http.StatusBadRequest, "compare needs a non-empty processes list")
		return
	}
	ca, ida, code, err := s.resolveModel(r.Context(), cr.ModelA)
	if err != nil {
		writeError(w, code, fmt.Sprintf("model_a: %v", err))
		return
	}
	cb, idb, code, err := s.resolveModel(r.Context(), cr.ModelB)
	if err != nil {
		writeError(w, code, fmt.Sprintf("model_b: %v", err))
		return
	}
	if err := validateEval(cr.Policy, "", cr.Params); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveEval(w, r, compareKey(ida, idb, &cr), cr.TimeoutMS, func(ctx context.Context) (evalResponse, error) {
		req, err := s.buildRequest(ctx, ca, &EstimateRequest{
			Params: cr.Params, Globals: cr.Globals, Seed: cr.Seed, Policy: cr.Policy,
		})
		if err != nil {
			return nil, err
		}
		req.Parallel = 1
		cmp, err := s.est.CompareModels(ca, cb, req, cr.Processes)
		if err != nil {
			return nil, err
		}
		resp := &CompareResponse{
			ModelAID:   ida,
			ModelBID:   idb,
			NameA:      cmp.NameA,
			NameB:      cmp.NameB,
			Crossovers: cmp.Crossovers,
		}
		for _, p := range cmp.Points {
			resp.Points = append(resp.Points, ComparePoint{
				Processes: p.Processes, MakespanA: p.MakespanA, MakespanB: p.MakespanB, Winner: p.Winner,
			})
		}
		return resp, nil
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
