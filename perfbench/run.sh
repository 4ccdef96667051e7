#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, passing the benchmark's flags through:
#
#   bash perfbench/run.sh --workload mc-slack-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write lands in .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the build
# directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --tmp "$build/tmp" "$@"
