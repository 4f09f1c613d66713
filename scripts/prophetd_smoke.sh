#!/usr/bin/env bash
# Black-box smoke test for prophetd: build the binary, serve a corpus
# model, estimate it twice (miss then cache hit), scrape /metrics, and
# check that SIGTERM drains to a clean exit 0.
#
# Needs curl; uses jq when available, falls back to grep.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${PROPHETD_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
MODEL="testdata/corpus/zero-time.xml"
BIN="$(mktemp -d)/prophetd"
PID=""

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$(dirname "$BIN")"
}
trap cleanup EXIT

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

echo "smoke: building prophetd"
go build -o "$BIN" ./cmd/prophetd

echo "smoke: starting on $BASE"
"$BIN" -addr "127.0.0.1:${PORT}" &
PID=$!

# Wait for /healthz (the server should come up in well under 10s).
up=""
for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$PID" 2>/dev/null || fail "prophetd exited before becoming healthy"
    sleep 0.1
done
[ -n "$up" ] || fail "/healthz never became ready"
echo "smoke: healthy"

# Register a model; the response carries its content address.
reg="$(curl -fsS -X POST --data-binary "@${MODEL}" "$BASE/v1/models")"
if command -v jq >/dev/null 2>&1; then
    id="$(printf '%s' "$reg" | jq -r .id)"
else
    id="$(printf '%s' "$reg" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
fi
case "$id" in
    sha256:*) echo "smoke: registered $id" ;;
    *) fail "unexpected model id in $reg" ;;
esac

# Estimate by id three times: two distinct seeds (the second must find the
# model's record prepared), then a repeat of the second (which must hit the result
# cache and skip the estimator entirely). Cacheable bodies are canonical —
# no trace_id — so the trace id comes from the X-Trace-Id header.
hdrs="$(mktemp)"
estimate() {
    curl -fsS -D "$hdrs" -X POST -H 'Content-Type: application/json' \
        -d "{\"model_id\": \"${id}\", \"globals\": {\"eps\": 0.5}, \"seed\": $1}" \
        "$BASE/v1/estimate"
}
trace_id=""
for seed in 1 2; do
    est="$(estimate "$seed")"
    printf '%s' "$est" | grep -q '"makespan"' || fail "estimate (seed $seed) has no makespan: $est"
    trace_id="$(tr -d '\r' <"$hdrs" | sed -n 's/^[Xx]-[Tt]race-[Ii]d: *//p')"
done
est="$(estimate 2)"
printf '%s' "$est" | grep -q '"makespan"' || fail "repeated estimate has no makespan: $est"
cache_outcome="$(tr -d '\r' <"$hdrs" | sed -n 's/^[Xx]-[Rr]esult-[Cc]ache: *//p')"
rm -f "$hdrs"
[ -n "$trace_id" ] || fail "estimate response has no X-Trace-Id header"
[ "$cache_outcome" = "hit" ] || fail "repeated estimate was not a result-cache hit (got '${cache_outcome}')"
echo "smoke: estimates ok (trace $trace_id, repeat was a result-cache $cache_outcome)"

# The request's span tree is fetchable by id and shows the simulate stage.
tree="$(curl -fsS "$BASE/v1/traces/${trace_id}")"
printf '%s' "$tree" | grep -q '"simulate"' || fail "trace $trace_id has no simulate span: $tree"
printf '%s' "$tree" | grep -q '"request"' || fail "trace $trace_id has no request root: $tree"
echo "smoke: trace ok"

metrics="$(curl -fsS "$BASE/metrics")"
for want in estimator_cache_hits_total estimator_cache_misses_total \
    server_queue_depth server_inflight model_store_models http_requests_total; do
    printf '%s\n' "$metrics" | grep -q "^${want}" || fail "/metrics missing ${want}"
done
printf '%s\n' "$metrics" | grep -q '^estimator_cache_hits_total 1' \
    || fail "second estimate did not find the model's record prepared"
printf '%s\n' "$metrics" | grep -q '^server_result_cache_total{outcome="hit"} 1' \
    || fail "repeated estimate did not count as a result-cache hit"
printf '%s\n' "$metrics" | grep -q '^server_result_cache_entries 2' \
    || fail "result cache does not hold the two distinct results"
# Prometheus exposition: typed families, per-route request histogram with
# observations, per-stage pipeline histogram, shed counters present at 0.
printf '%s\n' "$metrics" | grep -q '^# TYPE http_request_seconds histogram' \
    || fail "/metrics is not Prometheus exposition format"
count="$(printf '%s\n' "$metrics" | sed -n 's/^http_request_seconds_count{route="estimate"} //p')"
[ -n "$count" ] && [ "$count" -gt 0 ] || fail "request histogram has no observations: ${count:-missing}"
printf '%s\n' "$metrics" | grep -q '^estimate_stage_seconds_bucket{stage="simulate"' \
    || fail "/metrics missing per-stage latency histogram"
printf '%s\n' "$metrics" | grep -q '^server_rejected_total{reason=' \
    || fail "/metrics missing shed counter"
printf '%s\n' "$metrics" | grep -q '^go_goroutines' || fail "/metrics missing runtime stats"
echo "smoke: metrics ok"

# SIGTERM must drain and exit 0.
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
PID=""
[ "$status" -eq 0 ] || fail "prophetd exited $status on SIGTERM, want 0"
echo "smoke: clean shutdown"
echo "smoke: PASS"
