#!/usr/bin/env bash
# The benchmark's entry point, as BENCHMARK.json names it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the socket driver from this directory's own module and hands
# over to it; the driver builds the daemon and, for --trace 1, the traced
# run. Everything built or written lands under .bench_build/ in the
# checkout, the Go build cache and temporary files included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/ebench" ./cmd/ebench)
cd "$root"
exec "$build/bin/ebench" "$@"
