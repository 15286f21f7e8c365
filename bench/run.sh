#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash bench/run.sh [flags]   (see bench/README.md).
#
# Everything the build leaves behind (binary, Go build cache, temporary
# files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the root of a CAISP checkout (go.mod and bench/go.mod must exist)" >&2
	exit 3
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

# go build is incremental: with a warm cache this is a staleness check.
go build -C "$root/bench" -o "$build/caisp-bench" .

exec "$build/caisp-bench" "$@"
