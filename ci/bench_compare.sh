#!/usr/bin/env bash
# Performance gate: runs the benchmark (bench/run.sh) on the merge-base of
# BASE and HEAD and on this checkout, three times each with the side that
# goes first alternating, and exits with `bench compare`'s verdict over the
# two sets of runs: 1 on any `worse` end-to-end metric or any rise in the
# share of failed answers, under the bounds BENCHMARK.json declares. Every
# metric is a ratio to a sequential yardstick run in the same process, so
# the gate needs no recorded baseline and reads the same on any box.
#
#   bash ci/bench_compare.sh origin/main
set -euo pipefail
runs=3
seconds=3

base=${1:?usage: ci/bench_compare.sh BASE}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
rev=$(git merge-base "$base" HEAD)
work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/tree" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/tree" "$rev"
echo "== base $(git rev-parse --short "$rev"), change $(git rev-parse --short HEAD) + working tree"

# run SIDE I: one full benchmark run of SIDE into $work/SIDE-I.json, its
# output kept in a log that is printed only if the run fails.
run() {
  local tree=$root
  [ "$1" = base ] && tree=$work/tree
  local start=$SECONDS
  if ! bash "$tree/bench/run.sh" --seconds "$seconds" --out "$work/$1-$2.json" >"$work/$1-$2.log" 2>&1; then
    cat "$work/$1-$2.log"
    echo "== $1 run $2 failed" >&2
    return 1
  fi
  echo "== $1 run $2: $((SECONDS - start)) s"
}

a=() b=()
for i in $(seq 1 $runs); do
  if ((i % 2)); then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
  a+=("$work/base-$i.json") b+=("$work/change-$i.json")
done
bash bench/run.sh compare "$(IFS=,; echo "${a[*]}")" "$(IFS=,; echo "${b[*]}")"
