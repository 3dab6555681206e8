#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it there.
# Everything it writes (Go build cache, binary, span files) goes under
# .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/tokenbench" .
exec "$build/tokenbench" "$@"
