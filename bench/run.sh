#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload solve-nu20 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files stay in
# .bench_build/ under the current directory; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$out/qsbench" .)
exec "$out/qsbench" "$@"
