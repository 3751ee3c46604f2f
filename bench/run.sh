#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from the
# checkout's source, then run it with the caller's arguments. Every file
# the Go toolchain writes (build cache, link temporaries, its config and
# telemetry directory) is kept under .bench_build/ in the checkout, so
# the benchmark reads and writes nowhere else. `go run ./bench` does the
# same job for a person at the repository root, using their own cache.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
