#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it with the given
# arguments, from the checkout root, whose BENCHMARK.json it reads:
#
#   bash perfbench/run.sh --workload sas-vod --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and traced runs' spans stay under
# .bench_build in the checkout; the toolchain is the local one, with no
# module downloads.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
