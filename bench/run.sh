#!/usr/bin/env bash
# Build the benchmark inside the checkout and run it: the command
# BENCHMARK.json names. Everything the Go toolchain writes (build cache,
# temp files, binaries, module cache, its own usage counters under the user
# configuration directory) goes under .bench_build/ at the repository root,
# so a run reads and writes nothing outside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOWORK=off
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
