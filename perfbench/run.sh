#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload halo-8cube --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and traced-run files go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
# Keep every file the go command and pprof write (build cache, temp
# files, module cache, telemetry counters) inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
