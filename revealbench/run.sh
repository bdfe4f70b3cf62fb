#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of the repository:
#
#   bash revealbench/run.sh --workload corpus --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the checkout. The build needs the repository's Go module one directory
# up, so outside a full checkout it fails before anything runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C revealbench build -o "$build/bin/revealbench" .
exec "$build/bin/revealbench" "$@"
