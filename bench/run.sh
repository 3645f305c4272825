#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# (Go's build cache included, so nothing is written outside it) and runs
# it with the arguments given:
#
#   bench/run.sh --workload stream-2048 --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o .bench_build/devigo-bench ./bench
exec .bench_build/devigo-bench "$@"
