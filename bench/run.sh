#!/usr/bin/env bash
# Builds the benchmark and the swatd it measures from the checkout this
# is run in, then runs the benchmark with the given arguments. Run from
# the repository root: bash bench/run.sh --workload NAME --seed N
# --seconds S --trace 0|1. Everything built or written lands under
# .bench_build/, build cache included, so nothing outside the checkout
# is touched.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/bin/swatd" ./cmd/swatd
go build -o "$out/bin/bench" ./bench
exec "$out/bin/bench" "$@"
