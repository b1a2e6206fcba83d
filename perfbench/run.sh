#!/usr/bin/env bash
# Builds the benchmark from the sources it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload repro|long|sampled|serve --seed N --seconds S --trace 0|1
#
# The build cache, the binary and the span files go to $CARGO_TARGET_DIR
# (default .bench_build) under the current directory, which must be the
# repository root.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
