#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload fault-storm --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout; nothing is fetched over the
# network and nothing is written outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/bench" .)

cd "$root"
exec "$out/bench" "$@"
