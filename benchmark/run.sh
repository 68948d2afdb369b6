#!/usr/bin/env bash
# The acceptance driver's entry point: build the benchmark from the checkout's
# own source, then hand it the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the toolchain writes — build cache, temporary files, the binary —
# goes under .bench_build in the checkout, so a run touches nothing outside
# it. The first run in a checkout compiles (about half a minute on 2 CPUs);
# later runs only check the cache.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
    echo "benchmark/run.sh: $PWD is not a checkout of the repository; the benchmark builds the library it measures from source" >&2
    exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
