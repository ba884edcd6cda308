#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dp-paper --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span dumps go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --spans-dir "$out/spans" "$@"
