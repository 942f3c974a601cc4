#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes (compiler cache included)
# lands under .bench_build/ at the root of the checkout, nothing outside it.
#
#   bash bench/run.sh --workload traverse-inproc --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                       # all workloads, untraced then traced
#   bash bench/run.sh compare A.json B.json
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$root/bench" && go build -o "$build/steinerbench" .)
cd "$root"
exec "$build/steinerbench" "$@"
