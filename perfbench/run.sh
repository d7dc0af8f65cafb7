#!/usr/bin/env bash
# Builds the benchmark and cmd/shed from this checkout into .bench_build,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload crr-single --seed 1 --seconds 25 --trace 0
#
# The Go build cache lives in .bench_build too, and the toolchain is the
# local one with module downloads off: the repository is stdlib-only.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/bin/perfbench" .
go build -o "$out/bin/shed" ./cmd/shed
exec "$out/bin/perfbench" "$@"
