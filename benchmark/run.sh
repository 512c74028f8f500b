#!/bin/bash
# The command BENCHMARK.json names. Builds the benchmark from source
# inside the checkout (build cache included, so nothing is written
# outside it) and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local
mkdir -p "$GOCACHE"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
