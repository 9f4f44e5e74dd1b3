#!/bin/sh
# run.sh builds the benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash bench/run.sh --workload join-dram --seed 42 --seconds 20 --trace 0
#   bash bench/run.sh                       # all five workloads, one child each
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build in the repository root, so the run touches nothing
# outside the checkout. The benchmark module replaces the amac module with
# the parent directory; without it the build fails and so does this script.

set -eu

bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"

mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$bench_dir" && go build -o "$build/amac-bench" .)
exec "$build/amac-bench" "$@"
