#!/usr/bin/env bash
# Entry point of the benchmark contract (see ../BENCHMARK.json): run from
# the root of a checkout as
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It builds dvpbench and the dvpnode under test from the checkout's own
# source into .bench_build/ (Go caches included, so nothing is read or
# written outside the checkout) and hands its arguments to dvpbench,
# whose last line of output is the result object.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dvpnode" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a dvp checkout (go.mod, cmd/dvpnode and bench/ must be there)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off

go build -o "$build/bin/dvpnode" ./cmd/dvpnode
go -C "$root/bench" build -o "$build/bin/dvpbench" ./cmd/dvpbench

exec "$build/bin/dvpbench" -node "$build/bin/dvpnode" -work "$build" "$@"
