#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload served-warm --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, module cache, temporary files) stays under .bench_build/, so
# the benchmark writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
