#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# working directory, which must be the repository root) and runs it with
# the given arguments. The Go build cache is kept there too, so nothing
# is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/hydra-benchmark" .
exec "$build/hydra-benchmark" "$@"
