#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it
# with the given arguments. Run from the repository root. Every build
# output and cache stays under .bench_build in the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$build/spkadd-benchmark" .)
exec "$build/spkadd-benchmark" "$@"
