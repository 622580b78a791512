#!/usr/bin/env bash
# Builds the clone-pipeline benchmark from the checkout it is run in, then
# runs it with the given arguments. Run it from the checkout's root:
#
#   bash clonebench/run.sh --workload fork-fanout --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's Chrome trace stay
# inside the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/home"

# Keep every file the go command writes inside the checkout, and never
# reach for the network: the benchmark needs nothing outside the repo.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C "$(dirname "$0")" build -o "$build/clonebench" .
exec "$build/clonebench" --trace-out "$build" "$@"
