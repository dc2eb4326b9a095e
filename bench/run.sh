#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the Go toolchain writes (build cache, module cache,
# the binary) stays under .bench_build/ in the checkout; the benchmark's own
# outputs go to bench/out/. Arguments are passed through to the binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C bench -o "$build/lcmsr-bench" .
exec "$build/lcmsr-bench" "$@"
