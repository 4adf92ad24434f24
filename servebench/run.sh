#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Run from the repository root; every argument is passed to the binary:
#
#   bash servebench/run.sh --workload sharded-fresh --seed 3 --seconds 10 --trace 0
#
# The Go build cache and the binary live under .bench_build, so nothing
# is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPATH="$out/gopath"

(cd "$root/servebench" && go build -o "$out/servebench.bin" .) >&2
exec "$out/servebench.bin" "$@"
