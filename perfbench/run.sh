#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root:
#
#   bash perfbench/run.sh --workload regen-cold --seed 1 --seconds 25 --trace 0
#
# Build output and the Go caches stay under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/bin/perfbench" .) >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
