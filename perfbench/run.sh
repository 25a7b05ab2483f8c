#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig5-exact --seed 1 --seconds 15 --trace 0
#
# Every file the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
