#!/usr/bin/env bash
# Entry point of BENCHMARK.json. Builds the benchmark from the checkout's
# current source and runs it, keeping everything the build and the run
# write — Go's build cache and temporary files included — inside the
# checkout, under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
