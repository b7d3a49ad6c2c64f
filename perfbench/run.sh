#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments pass
# through to the binary. Run from anywhere in the repository:
#
#   bash perfbench/run.sh --workload session-churn --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) and everything a run writes (result and span files) stays in
# .bench_build at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOPROXY=off
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

bin="$build/perfbench"
(cd perfbench && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
