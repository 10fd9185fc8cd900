#!/usr/bin/env bash
# bench_compare.sh [base] — the bench-regression gate. Runs the bench/ suite
# of the base commit (from a detached worktree) and then of this checkout, on
# the machine it is started on, and judges the pair with `bench/run.sh
# -compare`: BENCHMARK.json's per-metric bounds, "unresolved" where a side's
# own spread exceeds its bound. No committed baseline, nothing to re-bless.
# CAVEAT: the two suites run about five minutes apart, so a machine whose speed
# drifts over minutes can turn cells red with no code change (seen in two of five
# such runs on the development VM). Re-check a red cell with alternating
# `bench/run.sh --workload` runs of both commits before believing it.
# base defaults to the merge-base with origin/main, or HEAD~1 where that is
# HEAD itself or unknown. Reports: .bench_build/{base,head}.json (gitignored).
# Exit: 0 nothing regressed; 1 a metric regressed or a suite failed an output
# check (the table is printed either way); 2 base has no bench/run.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

base=HEAD~1
if [ $# -gt 0 ]; then
    base=$1
elif mb=$(git merge-base HEAD origin/main 2>/dev/null) && [ "$mb" != "$(git rev-parse HEAD)" ]; then
    base=$mb
fi
base=$(git rev-parse --verify "$base^{commit}")
if ! git cat-file -e "$base:bench/run.sh" 2>/dev/null; then
    echo "bench_compare.sh: base $base has no bench/run.sh, nothing to compare against" >&2
    exit 2
fi

out=$PWD/.bench_build
mkdir -p "$out" && rm -f "$out/base.json" "$out/head.json"
trap 'rm -rf "$out/base"; git worktree prune' EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$out/base" "$base"

status=0
bash "$out/base/bench/run.sh" -out "$out/base.json" || status=1
bash bench/run.sh -out "$out/head.json" || status=1
bash bench/run.sh -compare "$out/base.json" "$out/head.json" || status=1
exit $status
