#!/usr/bin/env bash
# check.sh — the repo-wide verify gate.
#
# Runs, in order:
#   1. go build ./...          compile everything
#   2. gofmt -l               formatting (fails on any unformatted file)
#   3. go vet ./...            the stock vet suite
#   4. trajlint -tests ./...   the repo-specific analyzers (internal/lint):
#                              layering, floatcmp, floatstep, nanguard,
#                              errcheck, lockcopy, goroleak, mutexguard,
#                              lockorder, atomicmix — with the concurrency
#                              analyzers also covering _test.go files, plus
#                              a staleness check over .trajlint.allow
#   5. go test ./...           tier-1 tests
#   6. go test -race ./...     tier-2: same tests under the race detector
#   7. bench.sh --smoke        end-to-end: trajload against a live trajserver
#                              with a tiny point budget (report to a temp
#                              file — or $BENCH_SMOKE_OUT when set, so CI can
#                              upload it; the committed BENCH_load.json comes
#                              from a full scripts/bench.sh run)
#   8. torture.sh --smoke      crash-recovery: SIGKILL a WAL-backed
#                              trajserver mid-load five times and verify no
#                              acknowledged append is ever lost
#   9. torture.sh --repl-smoke replication: a primary + streaming follower
#                              pair through kill-primary/PROMOTE cycles
#                              (ack=follower) and kill-follower + lag-shed
#                              cycles (ack=primary)
#  10. bench/ harness          bench/ is its own module, so steps 1–6 never
#                              compile it: run its smoke (every workload at
#                              tiny sizes against a trajserver built from
#                              this checkout), vet and unit tests, so a
#                              signature drift against the frozen benchmark
#                              fails the PR that causes it, not the next
#                              benchmark run
#
# Failure propagation: bash with -e -u and -o pipefail, so a failure in any
# pipeline stage — not just the last command — fails the script, and the
# smoke scripts themselves verify their background server PIDs (bench.sh
# checks the server survived the load and drains cleanly; torture.sh
# supervises every server generation it kills). Nothing here can green-wash
# a failed stage. Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt"
# gofmt -l always exits 0; the grep only filters paths, and its no-match
# exit 1 is expected, so it is the one deliberately forgiven pipeline step.
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> trajlint -tests ./..."
go run ./cmd/trajlint -tests ./...

echo "==> trajlint -prune-allowlist"
go run ./cmd/trajlint -tests -prune-allowlist

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench smoke (trajload against live trajserver)"
bash scripts/bench.sh --smoke "${BENCH_SMOKE_OUT:-}"

echo "==> torture smoke (SIGKILL crash-recovery cycles)"
bash scripts/torture.sh --smoke

echo "==> repl torture smoke (two-node kill/promote + shedding cycles)"
bash scripts/torture.sh --repl-smoke

echo "==> benchmark harness (bench/ module: smoke, vet, tests)"
bash bench/run.sh -smoke
(cd bench && export GOFLAGS=-mod=mod && go vet . && go test .)

echo "==> all checks passed"
