#!/usr/bin/env bash
# bench.sh — run the committed benchmark grid: every supported TPC-H query on
# all four backends, median-of-N wall time and rows/sec as JSON.
#
#   scripts/bench.sh [out.json]      # default out: BENCH_PR10.json
#   SF=0.05 RUNS=5 scripts/bench.sh  # override scale factor / repetitions
#   CONC=8 scripts/bench.sh          # top client count of the concurrency series
#   WORKERS=4 scripts/bench.sh       # worker threads per query (0 = GOMAXPROCS)
#   BASE=BENCH_PR6.json scripts/bench.sh  # override the delta baseline
#
# Absolute numbers are host-dependent; the committed artifact records the
# shape (who wins per query, compile-wait share, how p99 grows with client
# count) for trend comparison. After the run the per-query/backend delta
# against the previous PR's artifact is printed, flagging any cell >10%
# slower.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR10.json}"
sf="${SF:-0.1}"
runs="${RUNS:-3}"
conc="${CONC:-8}"
workers="${WORKERS:-4}"
base="${BASE:-BENCH_PR6.json}"

echo "bench: SF ${sf}, ${runs} runs/cell, 8 queries x 4 backends, ${workers} workers, concurrency series up to ${conc} clients" >&2
go run ./cmd/inkbench -json -sf "$sf" -runs "$runs" -workers "$workers" \
    -concurrency "$conc" -conc-queue 2 > "$out"
echo "bench: wrote $out" >&2

if [ -f "$base" ] && [ "$base" != "$out" ]; then
    echo "bench: delta vs $base (>10% slower flagged)" >&2
    go run ./cmd/benchdiff -threshold 0.10 "$base" "$out"
fi
