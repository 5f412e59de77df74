#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Run from the root of a medmaker checkout. Everything the build writes
# (binary, Go build cache, Go environment files) stays under .bench_build
# (or $CARGO_TARGET_DIR when set) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
