#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Called from the repository root (BENCHMARK.json's command). Everything
# the build writes, Go's build cache included, lands in .bench_build/
# there, so a checkout is left with nothing outside itself.
set -euo pipefail
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/go-cache"
go build -C "$root/bench" -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
