#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Every build and run artifact (Go build cache, binary, span files)
# stays under .bench_build/ in the current directory.
#
#   bash perfbench/run.sh --workload hotspot3d --seed 1 --seconds 10 --trace 0
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
