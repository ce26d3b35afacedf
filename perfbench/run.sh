#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# flags. Run from the repository root:
#
#	bash perfbench/run.sh --workload fleet-batch --seed 1 --seconds 50 --trace 0
#
# Every build artifact, including the Go build cache, stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
