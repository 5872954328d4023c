#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash campaignbench/run.sh --workload rmt-fuzz --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache, temporary files) goes to
# .bench_build/ under the current directory, so nothing is written outside
# it. The build needs the repository's module at the directory above this
# script; without it the build fails and the script exits non-zero.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=.bench_build
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
go -C "$bench_dir" build -o "$out/campaignbench" .
exec "$out/campaignbench" "$@"
