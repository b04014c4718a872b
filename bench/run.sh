#!/usr/bin/env bash
# Builds the layered request benchmark from this checkout and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload fig8-warm --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout, so a run writes nowhere else.
set -euo pipefail

root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
