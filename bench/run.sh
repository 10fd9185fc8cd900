#!/usr/bin/env bash
# run.sh — the benchmark's entry point (BENCHMARK.json's "command").
#
# Builds the benchmark and the server it drives from this checkout's source
# into .bench_build/ (Go build cache included, so nothing is written outside
# the checkout), then runs the benchmark with the arguments given:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh -reps 3 -trace 1 -out report.json
#   bash bench/run.sh -smoke
#   bash bench/run.sh -compare a.json b.json
#
# The first run in a checkout compiles the standard library into the fresh
# cache (about a minute); later runs only check it.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp" # the compiler's scratch files stay in the checkout too
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
# The benchmark confines itself and the server to one CPU and sets GOMAXPROCS
# for both (pin_linux.go); a value from the caller's environment must not.
unset GOMAXPROCS

go build -C "$root/bench" -o "$build/bench" .
go build -C "$root" -o "$build/trajserver" ./cmd/trajserver

exec "$build/bench" -server-bin "$build/trajserver" "$@"
