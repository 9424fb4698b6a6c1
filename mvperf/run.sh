#!/usr/bin/env bash
# Builds the mvperf benchmark from the source tree it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash mvperf/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache) stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/mvperf"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C "$root/mvperf" build -buildvcs=false -o "$out/mvperf" .
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
src=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
cpu=$(grep -m1 '^model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || true)
exec env MVPERF_COMMIT="$commit" MVPERF_SOURCE="$src" MVPERF_CPU="$cpu" "$out/mvperf" "$@"
