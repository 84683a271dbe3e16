#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from (build cache included, so nothing is written outside the
# checkout) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/xmorph-benchmark" .)
cd "$root"
exec "$build/xmorph-benchmark" "$@"
