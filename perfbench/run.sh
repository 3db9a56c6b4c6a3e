#!/usr/bin/env bash
# Builds the benchmark and placementd from the sources of this checkout,
# then runs one workload. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -C perfbench -o "$out/bin/perfbench" .
go build -o "$out/bin/placementd" ./cmd/placementd
exec "$out/bin/perfbench" --placementd "$out/bin/placementd" "$@"
