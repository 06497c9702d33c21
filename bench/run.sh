#!/usr/bin/env bash
# Builds cmperf from source and runs it from the repository root:
#
#	bash bench/run.sh [flags]      (see bench/README.md)
#
# The binary and the Go build cache live in .bench_build/ at the root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -C "$root/bench" -o "$build/cmperf" .
cd "$root"
exec "$build/cmperf" "$@"
