#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json:
#   bash benchmark/bench.sh --workload W --seed N --seconds S --trace 0|1
# Builds the benchmark (and, through it, annoda-server) from source with
# every build artefact kept inside the checkout, then runs one workload.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$root"
go build -C benchmark -o "$build/annoda-benchmark" .
exec "$build/annoda-benchmark" bench "$@"
