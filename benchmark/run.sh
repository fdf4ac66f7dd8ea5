#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it from the checkout root. Everything it writes — Go's build
# cache, the binary, server state, span files — stays under .bench_build/
# in the checkout. All arguments go to the program (see README.md).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$root/.bench_build/fragmd-benchmark" .
exec "$root/.bench_build/fragmd-benchmark" "$@"
