#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload oneshot-light --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own state
# (GOPATH, and its config directory, where it keeps telemetry counters) stay
# under .bench_build/ in the checkout. Nothing is downloaded: the module has
# no dependencies outside the repository.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
