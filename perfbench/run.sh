#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload flow-medium --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
