#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash dltbench/run.sh --workload epoch-server --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache,
# temporary files, the binary) stays under .bench_build/ in the current
# directory, and the benchmark keeps its scratch files there too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# The module needs nothing from the network: it replaces diesel with the
# checkout and the repository is standard-library only.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/dltbench" && go build -o "$out/dltbench" .) >&2
exec "$out/dltbench" "$@"
