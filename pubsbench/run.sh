#!/usr/bin/env bash
# Builds the pubsbench binary from the checkout's sources and runs it.
#
#   bash pubsbench/run.sh --workload paper-figures --seed 1 --seconds 30 --trace 0
#   bash pubsbench/run.sh --workload all           # every workload, one table
#
# Run from the repository root. Build outputs and the Go build cache live in
# .bench_build/ under the root, so the run reads and writes nothing outside
# the checkout besides the Go toolchain itself.
set -euo pipefail

root="$PWD"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/experiments" ]]; then
	echo "pubsbench: $root is not the repro module root (no go.mod / internal/experiments)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

(cd "$root/pubsbench" && go build -o "$out/pubsbench" .)
exec "$out/pubsbench" -out "$out" "$@"
