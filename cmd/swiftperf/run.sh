#!/usr/bin/env bash
# Builds swiftperf from this checkout's sources and runs it with the given
# flags, e.g.
#
#   bash cmd/swiftperf/run.sh --workload batch-td --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's temporary stores all live under .bench_build/ there, so a run
# reads and writes nothing outside the checkout. Without the repository's
# sources around this directory the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C "$root/cmd/swiftperf" build -o "$build/swiftperf" .
exec "$build/swiftperf" "$@"
