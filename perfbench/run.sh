#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run it from the repository root; every argument is passed on:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traced runs' profiles all stay in
# .bench_build/ under the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
