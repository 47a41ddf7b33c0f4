#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload paper-synth --seed 0 --seconds 15 --trace 0
#
# Build output, the Go build cache and temporary files all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout root, so the
# first run compiles everything and later runs reuse the cache. Without
# the rest of the repository next to bench/ the build fails, and so does
# this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$root/bench" && go build -o "$out/rapidbench" .)
exec "$out/rapidbench" "$@"
