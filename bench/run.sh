#!/usr/bin/env bash
# Builds fhbench from this checkout's sources and runs it from the
# repository root with the given arguments (see bench/README.md).
# Everything the build writes stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/go-path" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/bin/fhbench" ./fhbench
cd "$root"
exec "$build/bin/fhbench" "$@"
