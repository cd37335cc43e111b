#!/usr/bin/env bash
# Builds chainbench from the checkout's sources and runs it. Run it from the
# repository root:
#
#   bash chainbench/run.sh --workload sweep|cached|batch --seed N --seconds S --trace 0|1
#
# Everything the build writes (the Go build cache included) goes under
# .bench_build/ in the checkout, and the build is offline: the benchmark's
# module depends only on the repository's own module, through a directory
# replace. The first build compiles the standard library into the fresh cache
# and takes a minute or two; later builds are incremental.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd chainbench && go build -o "$build/chainbench" .)
exec "$build/chainbench" "$@"
