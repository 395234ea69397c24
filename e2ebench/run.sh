#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload census-full --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that directory: the Go build cache, the
# binary, result records, spans and snapshot files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
