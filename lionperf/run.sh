#!/usr/bin/env bash
# Builds liond, lionroute and the benchmark program from this checkout's
# source, then runs one benchmark workload. Run it from the checkout root:
#
#   bash lionperf/run.sh --workload portal --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/liond" ./cmd/liond
go build -o "$out/lionroute" ./cmd/lionroute
(cd lionperf && go build -o "$out/lionperf" .)
exec "$out/lionperf" -bin "$out" "$@"
