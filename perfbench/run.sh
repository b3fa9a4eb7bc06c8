#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload hot-sf1 --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --all
#
# Everything it writes (binary, Go build cache, oracle results, traces) goes
# under .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The commit is stamped only when the current directory is itself a git
# checkout; otherwise the result's source hash identifies the code.
commit=unknown
if [ -e .git ] && command -v git >/dev/null 2>&1; then
    commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
    if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
        commit="$commit-dirty"
    fi
fi
(cd perfbench && go build -buildvcs=false -ldflags "-X main.commitID=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
