#!/usr/bin/env bash
# Builds the benchmark program and gpserve from this checkout's sources,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-sim --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache, binaries, journals, server logs).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/gpserve" gpm/cmd/gpserve >&2
cd "$root"
exec "$out/perfbench" -gpserve "$out/gpserve" -workdir "$out/tmp" "$@"
