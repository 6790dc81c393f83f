#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark program (a Go
# module of its own that reaches the simulator through `replace peas => ../`)
# and runs it from the repository root. Every file the build or the run writes
# stays under .bench_build/ or benchmark/out/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (go.mod and benchmark/go.mod)" >&2
	exit 2
fi
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
go build -C "$root/benchmark" -o "$root/.bench_build/bin/peas-benchmark" .
exec "$root/.bench_build/bin/peas-benchmark" "$@"
