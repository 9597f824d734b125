#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
