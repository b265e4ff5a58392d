#!/usr/bin/env bash
# Builds cmd/pardperf from this checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash cmd/pardperf/run.sh --workload colocate --seed 42 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout; nothing is read from or written to the
# user's Go configuration.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/cmd/pardperf" && go build -o "$out/pardperf" .)
cd "$root"
exec "$out/pardperf" "$@"
