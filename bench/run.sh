#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#
#   bash bench/run.sh -workload clean-n5k -seed 1 -seconds 20 -trace 0
#
# Run it from the repository root. The Go build cache, the binaries and the
# scratch files of a run stay under .bench_build/ in the checkout, and no
# module or toolchain is fetched.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
