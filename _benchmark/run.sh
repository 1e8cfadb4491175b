#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash _benchmark/run.sh --workload snn-mlp --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, chip-image caches, span dumps) stays under
# .bench_build at the root. The last line of stdout is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/_benchmark" && go build -o "$out/nebula-benchmark" .)
exec "$out/nebula-benchmark" -out "$out" "$@"
