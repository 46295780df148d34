#!/bin/sh
# Builds the benchmark from the source next to it and runs it; every
# argument goes to the program. The build cache, the binary and the data
# directories all stay under .bench_build/ in the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod" \
	GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$root/.bench_build/sidq-benchmark" .)
cd "$root"
exec "$root/.bench_build/sidq-benchmark" "$@"
