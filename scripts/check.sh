#!/usr/bin/env bash
# Tier-1 verify: format, build, vet, race-test the whole module.
# Recorded in ROADMAP.md; run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

go build ./...
go vet ./...
# perfbench is its own module (outside ./...) yet imports the engine's tpch,
# sql, exec, core and serve packages: vet it so an API break there fails here.
(cd perfbench && go vet ./...)

# inklint: the engine-invariant analyzers (hotpath allocation discipline,
# backend dispatch/enumeration completeness, typed boundary errors, shard-lock
# scope). Diagnostics print as file:line:col and fail the gate verbatim.
echo "inklint..."
go run ./cmd/inklint ./...
echo "inklint OK"

go test -race ./...

# Emitted C must compile. On a host with a C compiler the compile test has to
# run and pass: a skip there would hide a broken emitter or prelude.
if command -v cc >/dev/null 2>&1; then
    echo "emitted C compile..."
    ccout=$(go test -count=1 -v -run '^TestEmittedCCompiles$' . 2>&1) || true
    echo "$ccout" | grep -q '^--- PASS: TestEmittedCCompiles' \
        || { echo "emitted C compile test did not pass:" >&2; echo "$ccout" >&2; exit 1; }
    echo "emitted C compile OK"
fi

# Tied-key ordering depends on parallel scheduling; hammer the determinism
# tests a few extra times so a flaky tie-break cannot slip through one run.
for _ in 1 2 3; do
    go test -count=1 -run Determinism -race ./internal/exec/
done

# Differential fuzz seeds (batched vs scalar table kernels) under the race
# detector: the batched paths take shard locks once per chunk, so any ordering
# bug shows up here first.
go test -count=1 -race -run 'Fuzz(AggBatch|JoinBatch)' ./internal/rt/

# Benchmark smoke: one iteration of the morsel-loop and table-kernel benches
# so a compile error or panic in benchmark-only code cannot land unnoticed.
echo "bench smoke..."
go test -run XXX -bench MorselLoop -benchtime 1x ./internal/exec/ >/dev/null
go test -run XXX -bench 'AggBuild|JoinProbe' -benchtime 1x ./internal/rt/ >/dev/null
echo "bench smoke OK"

# Alloc guard: the morsel loop must stay allocation-free per chunk with the
# flight recorder on (the observability layer's zero-cost contract).
echo "alloc guard..."
go test -count=1 -run 'MorselLoopZeroAllocs|RecordNoAllocs' ./internal/exec/ ./internal/flight/ >/dev/null
echo "alloc guard OK"

# inkserve smoke test: start the server on a random port with a tiny catalog,
# run one query over HTTP, and assert the /metrics exposition advanced (query
# counter and per-backend latency histogram).
echo "inkserve smoke test..."
go build -o /tmp/inkserve-smoke ./cmd/inkserve
/tmp/inkserve-smoke -addr 127.0.0.1:0 -sf 0.01 >/tmp/inkserve-smoke.out 2>/tmp/inkserve-smoke.log &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|^inkserve: listening on http://||p' /tmp/inkserve-smoke.out)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "inkserve did not come up" >&2
    cat /tmp/inkserve-smoke.log >&2
    exit 1
fi
body=$(curl -sf "http://$addr/query" -d '{"query":"q6","backend":"vectorized"}')
echo "$body" | grep -q '"rows"' || { echo "query response malformed: $body" >&2; exit 1; }
metrics=$(curl -sf "http://$addr/metrics")
echo "$metrics" | grep -q '^inkfuse_queries_succeeded [1-9]' \
    || { echo "/metrics query counter did not advance" >&2; exit 1; }
echo "$metrics" | grep -q 'inkfuse_query_seconds_bucket{backend="vectorized",le="+Inf"} [1-9]' \
    || { echo "/metrics latency histogram did not advance" >&2; exit 1; }

# SQL path: prepare a parameterized statement, execute it twice with
# different parameter values, and assert the second run hit the plan cache
# (the /metrics plancache hit counter must be nonzero).
prep=$(curl -sf "http://$addr/prepare" \
    -d '{"sql":"select count(*) as n from lineitem where l_quantity < ?"}')
handle=$(echo "$prep" | sed -n 's/.*"handle": *"\([^"]*\)".*/\1/p')
[ -n "$handle" ] || { echo "prepare response malformed: $prep" >&2; exit 1; }
body=$(curl -sf "http://$addr/query" -d '{"prepared":"'"$handle"'","params":[30]}')
echo "$body" | grep -q '"plan_cache": *"miss"' \
    || { echo "first prepared execution should miss the plan cache: $body" >&2; exit 1; }
body=$(curl -sf "http://$addr/query" -d '{"prepared":"'"$handle"'","params":[11]}')
echo "$body" | grep -q '"plan_cache": *"hit"' \
    || { echo "second prepared execution should hit the plan cache: $body" >&2; exit 1; }
# Fetch the exposition once into a variable: piping curl straight into
# `grep -q` races pipefail (grep exits on match, curl fails on the closed
# pipe).
metrics=$(curl -sf "http://$addr/metrics")
echo "$metrics" | grep -q '^inkfuse_plancache_hits [1-9]' \
    || { echo "/metrics plancache hit counter did not advance" >&2; exit 1; }

# Prometheus text-format lint: every exposition line must be a comment or a
# well-formed `name{labels} value` sample (histogram buckets included), and
# the histogram families must carry TYPE metadata.
bad=$(echo "$metrics" | grep -vE '^# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$' \
    | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$' \
    | grep -vE '^$' || true)
if [ -n "$bad" ]; then
    echo "/metrics lines fail the Prometheus text-format lint:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "$metrics" | grep -q '^# TYPE inkfuse_query_seconds histogram$' \
    || { echo "/metrics histogram family missing TYPE metadata" >&2; exit 1; }

# Flight recorder smoke: the ring must have recorded the queries above, and
# SIGQUIT must dump it to stderr without killing the server or an in-flight
# query.
flight=$(curl -sf "http://$addr/debug/flight")
echo "$flight" | grep -q '^flight recorder: [1-9]' \
    || { echo "/debug/flight returned no events: $flight" >&2; exit 1; }
echo "$flight" | grep -q 'query_done' \
    || { echo "/debug/flight missing query lifecycle events" >&2; exit 1; }
: > /tmp/inkserve-smoke.quitcode
curl -s -o /dev/null -w '%{http_code}\n' --max-time 30 "http://$addr/query" \
    -d '{"query":"q1","backend":"vectorized"}' > /tmp/inkserve-smoke.quitcode &
quit_curl=$!
kill -QUIT "$serve_pid"
wait "$quit_curl"
grep -q '^200$' /tmp/inkserve-smoke.quitcode \
    || { echo "query concurrent with SIGQUIT failed: $(cat /tmp/inkserve-smoke.quitcode)" >&2; exit 1; }
kill -0 "$serve_pid" 2>/dev/null \
    || { echo "SIGQUIT killed inkserve" >&2; exit 1; }
for _ in $(seq 1 50); do
    grep -q 'flight recorder:' /tmp/inkserve-smoke.log && break
    sleep 0.1
done
grep -q 'flight recorder:' /tmp/inkserve-smoke.log \
    || { echo "SIGQUIT did not dump the flight recorder" >&2; cat /tmp/inkserve-smoke.log >&2; exit 1; }
curl -sf "http://$addr/healthz" >/dev/null \
    || { echo "inkserve unhealthy after SIGQUIT dump" >&2; exit 1; }

kill "$serve_pid"
trap - EXIT
echo "inkserve smoke test OK"

# Bounded parser fuzz: a few hundred mutations over the corpus seeds — the
# frontend must never panic and every failure must carry a source position.
echo "parser fuzz smoke..."
go test -run XXX -fuzz FuzzParseSQL -fuzztime 300x ./internal/sql/ >/dev/null
echo "parser fuzz smoke OK"

# Concurrent-load smoke: an admission-controlled server under 16 parallel
# clients must answer every request with 200 (served), 429 (shed) or 504
# (deadline) — never 500, never a hang — and shut down cleanly within the
# drain deadline on SIGTERM, logging the drain outcome.
echo "inkserve concurrent-load smoke..."
/tmp/inkserve-smoke -addr 127.0.0.1:0 -sf 0.01 -backend vectorized \
    -max-concurrent 2 -queue-depth 2 -drain 5s \
    >/tmp/inkserve-conc.out 2>/tmp/inkserve-conc.log &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|^inkserve: listening on http://||p' /tmp/inkserve-conc.out)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "inkserve (concurrent smoke) did not come up" >&2
    cat /tmp/inkserve-conc.log >&2
    exit 1
fi
: > /tmp/inkserve-conc.codes
curl_pids=()
for _ in $(seq 1 16); do
    curl -s -o /dev/null -w '%{http_code}\n' --max-time 30 \
        "http://$addr/query" -d '{"query":"q1","backend":"vectorized"}' \
        >> /tmp/inkserve-conc.codes &
    curl_pids+=("$!")
done
wait "${curl_pids[@]}"
if [ "$(wc -l < /tmp/inkserve-conc.codes)" -ne 16 ]; then
    echo "concurrent smoke: not all 16 requests completed" >&2
    cat /tmp/inkserve-conc.codes >&2
    exit 1
fi
if grep -qvE '^(200|429|504)$' /tmp/inkserve-conc.codes; then
    echo "concurrent smoke: unexpected status under load:" >&2
    sort /tmp/inkserve-conc.codes | uniq -c >&2
    exit 1
fi
grep -q '^200$' /tmp/inkserve-conc.codes \
    || { echo "concurrent smoke: no request succeeded" >&2; exit 1; }
kill -TERM "$serve_pid"
for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "concurrent smoke: inkserve did not exit within the drain deadline" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
grep -q 'engine drained' /tmp/inkserve-conc.log \
    || { echo "concurrent smoke: drain log line missing" >&2; cat /tmp/inkserve-conc.log >&2; exit 1; }
echo "inkserve concurrent-load smoke OK"

# inkbench concurrency smoke: concurrent agg/join-heavy queries through
# inkbench's admission-controlled scheduler must all succeed, and the /metrics
# exposition must show the thread-local pre-aggregation absorbing hash-table
# lookups (DESIGN.md §10).
echo "inkbench concurrency smoke..."
concout=$(go run ./cmd/inkbench -concurrency 4 -conc-requests 16 \
    -queries q1,q3,q5 -sf 0.01 -metrics)
echo "$concout" | grep -q '^inkfuse_queries_failed 0$' \
    || { echo "inkbench concurrency smoke: queries failed" >&2; echo "$concout" >&2; exit 1; }
echo "$concout" | grep -q '^inkfuse_ht_local_hits_total [1-9]' \
    || { echo "inkbench concurrency smoke: no thread-local pre-aggregation hits" >&2; echo "$concout" >&2; exit 1; }
echo "inkbench concurrency smoke OK"
