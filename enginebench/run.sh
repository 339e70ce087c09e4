#!/usr/bin/env bash
# Builds the engine benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash enginebench/run.sh --workload mc16-weave --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$root/enginebench" build -o "$out/enginebench" .
exec "$out/enginebench" "$@"
