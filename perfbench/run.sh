#!/usr/bin/env bash
# Builds the THALIA benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload testbed-cold --seed 1 --seconds 30 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) lives
# under .bench_build in the current directory, so nothing outside the
# checkout is read or written apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
