#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; every argument is
# passed on. The Go build cache lives under .bench_build so that nothing is
# written outside the checkout; only the first run pays for the build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$build/hecbench" .
exec "$build/hecbench" "$@"
