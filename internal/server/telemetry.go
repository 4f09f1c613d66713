package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"prophet/internal/obs"
	"prophet/internal/trace"
)

// tracedRoutes names the routes that get a per-request trace: the
// evaluation pipeline. Read-only routes (healthz, metrics, trace fetches)
// produce no spans of their own and would only churn the ring.
var tracedRoutes = map[string]bool{
	"estimate":   true,
	"sweep":      true,
	"montecarlo": true,
	"compare":    true,
	"models":     true,
}

// quietRoutes log at Debug instead of Info: load balancers poll healthz
// and Prometheus scrapes metrics every few seconds, and neither should
// drown the request log.
var quietRoutes = map[string]bool{
	"healthz": true,
	"metrics": true,
}

// startTrace opens a per-request trace when the route is traced: the root
// span ("request") is annotated with the route and method, rides the
// request context into the pipeline, and the trace ID is echoed in the
// X-Trace-Id response header so clients can fetch the span tree from
// GET /v1/traces/{id} afterwards.
func (s *Server) startTrace(route string, w http.ResponseWriter, r *http.Request) (*obs.Trace, *http.Request) {
	if !tracedRoutes[route] {
		return nil, r
	}
	tr, root := obs.NewTrace("request")
	root.Annotate("route", route)
	root.Annotate("method", r.Method)
	w.Header().Set("X-Trace-Id", tr.ID())
	return tr, r.WithContext(obs.ContextWithSpan(r.Context(), root))
}

// finishTrace closes the request's root span with the response status and
// publishes the trace to the ring, making it fetchable.
func (s *Server) finishTrace(tr *obs.Trace, code int) {
	if tr == nil {
		return
	}
	root := tr.Root()
	root.Annotate("status", fmt.Sprint(code))
	root.End()
	s.traces.Add(tr)
}

// logRequest emits one structured line per request. Every line carries
// the route, status and duration; traced requests carry their trace_id,
// which is the join key against GET /v1/traces/{id} and the metrics.
func (s *Server) logRequest(r *http.Request, route string, code int, d time.Duration, traceID string) {
	level := slog.LevelInfo
	if quietRoutes[route] {
		level = slog.LevelDebug
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("route", route),
		slog.Int("status", code),
		slog.Float64("seconds", d.Seconds()),
	}
	if traceID != "" {
		attrs = append(attrs, slog.String("trace_id", traceID))
	}
	s.log.LogAttrs(r.Context(), level, "request", attrs...)
}

// wantTrace reports whether the client asked for the span tree inline
// (?trace=1) in the response body.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// attachTrace fills a response's trace fields: the trace ID whenever the
// request is traced, and — with ?trace=1 — an inline span-tree snapshot.
// The snapshot is taken before the root span ends (the response body is
// written inside it), so the root reports its duration so far and is
// marked unfinished; fetch GET /v1/traces/{id} afterwards for the closed
// tree.
func (s *Server) attachTrace(r *http.Request, id *string, tree **obs.TraceTree) {
	tr := obs.SpanFromContext(r.Context()).Trace()
	if tr == nil {
		return
	}
	*id = tr.ID()
	if wantTrace(r) {
		tt := tr.Tree()
		*tree = &tt
	}
}

// TraceSummary is one entry of GET /v1/traces: enough to pick a trace
// worth fetching in full.
type TraceSummary struct {
	TraceID string  `json:"trace_id"`
	Route   string  `json:"route,omitempty"`
	Status  string  `json:"status,omitempty"`
	Seconds float64 `json:"seconds"`
	Spans   int     `json:"spans"`
}

// TracesResponse is the body of GET /v1/traces, newest first.
type TracesResponse struct {
	Traces []TraceSummary `json:"traces"`
}

// handleTraces lists the most recent request traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	resp := TracesResponse{Traces: []TraceSummary{}}
	for _, tr := range s.traces.Recent(0) {
		tt := tr.Tree()
		ts := TraceSummary{TraceID: tt.TraceID, Spans: tt.Spans}
		if tt.Root != nil {
			ts.Seconds = tt.Root.Seconds
			ts.Route = tt.Root.Attrs["route"]
			ts.Status = tt.Root.Attrs["status"]
		}
		resp.Traces = append(resp.Traces, ts)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace serves one trace's span tree by ID. The default form is the
// obs.TraceTree JSON that traceview -spans reads; ?format=chrome converts
// it through the trace package so the same request can be opened in
// chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown trace %q (only the most recent traces are retained)", id))
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, tr.Tree())
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteChrome(w, trace.FromSpanTree(tr.Tree()))
	default:
		writeError(w, http.StatusBadRequest, "unknown format (want json or chrome)")
	}
}

// handleMetrics serves the registry in the Prometheus text exposition
// format. Go runtime stats and uptime are sampled at scrape time, so a
// scrape always sees the current process state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.runtimeStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, s.reg)
}

// runtimeStats refreshes the process-level gauges: goroutines, heap, GC.
func (s *Server) runtimeStats() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("go_goroutines").Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge("go_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	s.reg.Gauge("go_heap_objects").Set(float64(ms.HeapObjects))
	s.reg.Gauge("go_gc_cycles_total").Set(float64(ms.NumGC))
	s.reg.Gauge("go_gc_pause_seconds_total").Set(float64(ms.PauseTotalNs) / 1e9)
	s.reg.Gauge("server_uptime_seconds").Set(time.Since(s.start).Seconds())
	s.reg.Gauge("server_traces_stored").Set(float64(s.traces.Len()))
}

// registerHelp attaches Prometheus # HELP text to the metrics the server
// and its pipeline publish.
func (s *Server) registerHelp() {
	for name, help := range map[string]string{
		"http_requests_total":          "HTTP requests served, by route and status code.",
		"http_request_seconds":         "HTTP request latency in seconds, by route.",
		"estimate_stage_seconds":       "Evaluation pipeline stage latency in seconds, by stage.",
		"estimator_runs_total":         "Evaluations executed by the estimator.",
		"estimator_cache_hits_total":   "Evaluations that found their model record already prepared.",
		"estimator_cache_misses_total": "Evaluations that checked and compiled their model record.",
		"server_inflight":              "Evaluations currently holding an admission slot.",
		"server_queue_depth":           "Requests currently waiting for an admission slot.",
		"server_rejected_total":        "Requests shed by admission control, by reason.",
		"server_result_cache_total":    "Evaluation requests by result-cache outcome (hit, miss, inflight, bypass).",
		"server_result_cache_entries":  "Results currently stored in the result cache.",
		"server_shard_jobs_total":      "Shard sub-jobs dispatched to pool workers, by worker.",
		"server_shard_errors_total":    "Shard sub-jobs that failed, by worker.",
		"server_shard_workers":         "Workers configured in the shard pool.",
		"server_uptime_seconds":        "Seconds since the server was constructed.",
		"server_traces_stored":         "Request traces currently held in the ring buffer.",
		"model_store_models":           "Models resident in the content-addressed store.",
		"go_goroutines":                "Goroutines currently live in the process.",
		"go_heap_alloc_bytes":          "Bytes of allocated heap objects.",
		"go_gc_pause_seconds_total":    "Cumulative GC stop-the-world pause time in seconds.",
	} {
		s.reg.Help(name, help)
	}
}
