#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Every build output and cache stays under .bench_build/.
#
#   bash _perfbench/run.sh --workload census --seed 1 --seconds 30 --trace 0
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"

# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# in the checkout too.
(cd "$here" && env GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
