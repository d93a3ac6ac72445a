#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark, for example:
#
#   bash perfbench/run.sh --workload sweep-fanout --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory: the Go build cache, the binary and the scratch
# directories of each run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 GOFLAGS=-buildvcs=false
# The commit goes into the host record; a checkout that is not a git
# repository reports "unknown".
PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
