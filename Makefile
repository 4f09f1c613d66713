# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check fmt build test vet race smoke loadtest bench bench-pipeline \
	bench-pipeline-check perfbench-test cover examples \
	experiments conformance conformance-update fuzz-smoke loc clean

all: check

# The default gate: formatting, compile, vet, full test suite, and a
# race-detector pass over the concurrency-heavy packages.
check: fmt build vet test race

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the simulation engine (goroutine handoffs),
# the metrics package (lock-free atomics), the batch runtime
# (worker-pool fan-out) plus the estimator entry points built on it,
# the HTTP serving layer (admission control, drain, model store), and
# the engine's users: the interpreter (fork and OpenMP processes) and
# the machine model (delivery callbacks run on process goroutines), and
# the memo of derived artifacts a model builds once and shares with every
# reader (flow graphs, region trees, the check report) and its readers,
# and the trace recorder's block pool, shared by concurrent runs.
race:
	$(GO) test -race ./internal/sim/... ./internal/obs/... ./internal/runner/... ./internal/estimator/... ./internal/lower/... ./internal/server/... ./internal/analytic/... ./internal/interp/... ./internal/machine/... ./internal/uml/... ./internal/checker/... ./internal/core/... ./internal/cppgen/... ./internal/gogen/... ./internal/trace/...

# Black-box smoke test of the prophetd binary: start it, register a
# model, estimate, scrape /metrics, and check SIGTERM drains cleanly.
smoke:
	./scripts/prophetd_smoke.sh

# Serving-layer load test: drive cold / hot / concurrent-identical
# traffic through a live prophetd with cmd/loadgen, write the
# BENCH_serving.json latency/throughput report, and enforce the
# hot-path req/s, cache-hit-rate, and hot-vs-cold speedup floors.
loadtest:
	./scripts/prophetd_loadtest.sh

# Full benchmark pass (the per-table/figure harness of EXPERIMENTS.md),
# plus the runner/sim/lowered-engine hot-path benchmarks and the BENCH_runner.json
# artifact tracking ns/op, allocs/op, and parallel speedup across PRs.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -bench=. -benchmem ./internal/sim/ ./internal/estimator/ ./internal/core/ ./internal/lower/
	$(GO) run ./cmd/benchrunner -o BENCH_runner.json -min-analytic-speedup 100

# Per-stage pipeline scalability trajectory: every transformation stage
# (parse, encode, hash, check, traverse, compile, lower, codegen,
# simulate) measured over generated models at 10^3..10^5 nodes and
# written to BENCH_pipeline.json. See docs/PERFORMANCE.md.
bench-pipeline:
	$(GO) run ./cmd/benchpipeline -o BENCH_pipeline.json

# Regression gate: measure fresh and compare against the committed
# BENCH_pipeline.json; any stage slower than 2x baseline fails (the
# CI bench-pipeline job runs this).
bench-pipeline-check:
	$(GO) run ./cmd/benchpipeline -o BENCH_pipeline_fresh.json -baseline BENCH_pipeline.json

# The benchmark harness (perfbench/, its own module, not reached by the
# root ./...): vet it and run its tests of the statistics, schedules and
# span attribution.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sample
	$(GO) run ./examples/kernel6
	$(GO) run ./examples/jacobi
	$(GO) run ./examples/openmp

# Regenerate the experiment report of EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/experiments

# End-to-end conformance harness: corpus → full pipeline → goldens +
# differential oracles (docs/TESTING.md). Fails on drift.
conformance:
	$(GO) run ./cmd/conformance run -json conformance-report.json

# Regenerate the golden artifacts after an intentional output change;
# review the testdata/golden diff before committing.
conformance-update:
	$(GO) run ./cmd/conformance update

# Short fuzz pass over every target; long sessions are manual. FUZZTIME
# is the budget per target in seconds; the two whole-pipeline targets
# (FuzzPipeline, FuzzAnalyticAgreement) get twice as long. CI runs
# `make fuzz-smoke FUZZTIME=10`.
FUZZTIME ?= 5
FUZZTIME_LONG = $(shell expr $(FUZZTIME) \* 2)

fuzz-smoke:
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME)s ./internal/xmi/
	$(GO) test -fuzz='^FuzzDecodeReference$$' -fuzztime=$(FUZZTIME)s ./internal/xmi/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME)s ./internal/xmi/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME)s ./internal/expr/
	$(GO) test -fuzz=FuzzEval -fuzztime=$(FUZZTIME)s ./internal/expr/
	$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME)s ./internal/trace/
	$(GO) test -fuzz=FuzzPipeline -fuzztime=$(FUZZTIME_LONG)s ./internal/core/
	$(GO) test -fuzz=FuzzLoweredEquivalence -fuzztime=$(FUZZTIME)s ./internal/lower/
	$(GO) test -fuzz=FuzzAnalyticAgreement -fuzztime=$(FUZZTIME_LONG)s ./internal/analytic/

# Non-test Go lines outside perfbench/, the size metric ROADMAP tracks.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

clean:
	rm -f cover.out test_output.txt bench_output.txt conformance-report.json
