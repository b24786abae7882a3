#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload crawl --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache
# and the benchmark's scratch state all stay under $CARGO_TARGET_DIR
# (default .bench_build) in that root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# The go command keeps telemetry and settings under the user's config
# directory; point it into the build directory too.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export PERFBENCH_WORK=$out

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
