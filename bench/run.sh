#!/usr/bin/env bash
# Builds busprobe-server and the benchmark from this checkout into
# .bench_build/, then runs the benchmark with the given arguments, e.g.
#
#   bash bench/run.sh --workload rush-hour --seed 1 --seconds 10 --trace 0
#
# Go's build cache and temporary files stay inside .bench_build/ too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$out/busprobe-server" ./cmd/busprobe-server
go build -o "$out/bench" ./bench
exec "$out/bench" -server-bin "$out/busprobe-server" -work "$out" "$@"
