#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload meta-local --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, run
# records and span files all stay under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/records" "$@"
