#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the root of the repository:
#
#	bash perfbench/run.sh --workload ycsb-b-tcp --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/qcperf" .)
exec "$build/qcperf" "$@"
