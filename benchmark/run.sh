#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source with
# every Go cache kept inside the checkout (.bench_build/, git-ignored), then
# hands the driver's flags to `hsqbenchmark run`. The benchmark binary builds
# cmd/hsqd itself, with the same environment.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/bin/hsqbenchmark" .
exec "$build/bin/hsqbenchmark" run -repo "$PWD" "$@"
