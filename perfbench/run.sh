#!/usr/bin/env bash
# Builds the relatrustd benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload census_budget --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the servers' data and
# job directories, and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if ! go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -root "$root" -git-sha "$sha" "$@"
