#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 7 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache, so the first run compiles the standard
# library and later runs reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-build"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

cd "$root"
exec "$out/bin/perfbench" -root "$root" "$@"
