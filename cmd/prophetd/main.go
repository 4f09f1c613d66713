// Command prophetd serves performance estimates over HTTP: the
// long-running, hardened front-end to the Performance Prophet pipeline.
//
//	prophetd -addr :8080
//
// Endpoints (full reference in docs/SERVING.md):
//
//	POST /v1/models        register an XMI model, returns its content address
//	POST /v1/estimate      one evaluation (inline XMI or a stored model id)
//	POST /v1/sweep         process-count or global-variable sweep
//	POST /v1/montecarlo    Monte Carlo makespan distribution
//	POST /v1/compare       two-design comparison across process counts
//	GET  /v1/traces        recent request traces, newest first
//	GET  /v1/traces/{id}   one request's span tree (?format=chrome for Perfetto)
//	GET  /healthz          liveness (503 while draining)
//	GET  /metrics          Prometheus text-format metrics
//
// Every evaluation request is traced end to end — parse, admission wait,
// check, compile (with cache outcome), simulate — and logged as one
// structured line carrying the trace ID. -debug-addr exposes net/http/pprof
// on a separate listener that is never reachable from the serving port.
//
// prophetd sheds load with 503 + Retry-After when the in-flight and
// queue bounds are exceeded, enforces a per-request deadline inside the
// simulation, and drains gracefully on SIGTERM/SIGINT: /healthz flips to
// 503, new evaluations are rejected, in-flight requests complete (up to
// -drain-timeout), then the process exits 0.
//
// Identical evaluation requests share work twice over: a bounded LRU
// result cache (-result-cache, keyed by the canonical request key) answers
// repeats without re-simulating, and in-flight duplicates coalesce onto
// one evaluation (singleflight). The X-Result-Cache response header
// reports hit, miss, inflight or bypass per request. With -workers,
// prophetd becomes a coordinator: sweeps and Monte Carlo runs are split
// into sub-ranges fanned across the worker pool and merged bit-identically
// to a single-node run. docs/SERVING.md covers both in detail.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prophet/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prophetd:", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger from the -log-format/-log-level
// flags. JSON is the default: one object per line, machine-parseable, the
// schema documented in docs/OBSERVABILITY.md.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want json or text)", format)
}

// debugMux builds the pprof mux served on -debug-addr. The profiling
// endpoints live on their own listener (typically bound to localhost) so
// they are never reachable through the serving port.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(args []string) error {
	fs := flag.NewFlagSet("prophetd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		debugAddr    = fs.String("debug-addr", "", "listen address for net/http/pprof (empty = disabled)")
		logFormat    = fs.String("log-format", "json", "log output format: json or text")
		logLevel     = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		traceRing    = fs.Int("trace-ring", 0, "recent request traces kept for GET /v1/traces (0 = 256)")
		maxInFlight  = fs.Int("max-inflight", 0, "max concurrent evaluations (0 = GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 0, "max queued requests (0 = 2*max-inflight, -1 = none)")
		queueWait    = fs.Duration("queue-wait", 2*time.Second, "max time a request waits for an evaluation slot")
		timeout      = fs.Duration("timeout", 30*time.Second, "default per-request evaluation deadline")
		maxTimeout   = fs.Duration("max-timeout", 5*time.Minute, "upper clamp on client-requested deadlines")
		maxBody      = fs.Int64("max-body", 8<<20, "max request body bytes")
		maxModels    = fs.Int("max-models", 1024, "max models kept in the content-addressed store, each with its prepared program")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight requests on shutdown")
		resultCache  = fs.Int("result-cache", 1024, "max entries in the evaluation result cache (0 = disabled)")
		workers      = fs.String("workers", "", "comma-separated worker base URLs to shard sweeps and Monte Carlo runs across (empty = evaluate locally)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}

	var pool []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			pool = append(pool, strings.TrimRight(w, "/"))
		}
	}

	srv := server.New(server.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		MaxModels:      *maxModels,
		Logger:         logger,
		TraceRingSize:  *traceRing,
		ResultCache:    *resultCache,
		Workers:        pool,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- hs.ListenAndServe()
	}()

	var ds *http.Server
	if *debugAddr != "" {
		ds = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising health and shed new work first,
	// then let http.Server.Shutdown wait for in-flight requests.
	logger.Info("draining", "drain_timeout", drainTimeout.String())
	srv.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if ds != nil {
		_ = ds.Shutdown(sctx)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained, exiting")
	return nil
}
