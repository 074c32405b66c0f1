#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout; every argument is passed on:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced runs' files go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOWORK=off GOFLAGS= GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
