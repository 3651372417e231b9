#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
#
#   bash benchmark/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind (Go build cache, binary, trace files) goes under
# .bench_build/ in that root, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Pin the toolchain and keep its caches and config inside the checkout;
# never reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
# Runtime tuning from the caller's environment would make runs
# incomparable; the benchmark sets GOMAXPROCS itself.
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS

(cd "$root/benchmark" && go build -o "$out/graybox-bench" .)
exec "$out/graybox-bench" "$@"
