#!/usr/bin/env bash
# Builds the kvbench benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash kvbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, WAL directories and spans.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-config" "$out/go-mod" "$out/kvbench"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" \
	XDG_CONFIG_HOME="$out/go-config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/kvbench" && go build -buildvcs=false -o "$out/kvbench/kvbench" .)
exec "$out/kvbench/kvbench" --workdir "$out/kvbench" "$@"
