#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it:
#
#   bash perfbench/run.sh --workload resnet18-b1 --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare A.json ... -- B.json ...
#
# Everything the build and the runs leave behind (Go build cache, the
# runner binary, exported models, cached reference outputs, results and
# traces) goes to .bench_build at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"
