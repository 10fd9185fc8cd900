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
#   7. torture.sh --smoke      crash-recovery: SIGKILL a WAL-backed
#                              trajserver mid-load five times and verify no
#                              acknowledged append is ever lost
#   8. torture.sh --repl-smoke replication: a primary + streaming follower
#                              pair through kill-primary/PROMOTE cycles
#                              (ack=follower) and kill-follower + lag-shed
#                              cycles (ack=primary)
#   9. bench/ harness          the only live-server load smoke (the torture
#                              stages kill theirs): every workload of the
#                              benchmark at tiny sizes against a trajserver
#                              built from this checkout, every answer
#                              verified, a clean SIGTERM drain required.
#                              bench/ is its own module, so steps 1–6 never
#                              compile it: its vet and unit tests run here
#                              too, so a signature drift against the frozen
#                              benchmark fails the PR that causes it, not the
#                              next benchmark run
#
# Failure propagation: bash with -e -u and -o pipefail, so a failure in any
# pipeline stage — not just the last command — fails the script, and the
# smoke runs themselves supervise their server processes (bench/ requires
# that the server survives the load and drains cleanly; torture.sh supervises
# every server generation it kills). Nothing here can green-wash a failed
# stage. Run from anywhere inside the repo.
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

echo "==> torture smoke (SIGKILL crash-recovery cycles)"
bash scripts/torture.sh --smoke

echo "==> repl torture smoke (two-node kill/promote + shedding cycles)"
bash scripts/torture.sh --repl-smoke

echo "==> benchmark harness (bench/ module: smoke, vet, tests)"
bash bench/run.sh -smoke
(cd bench && export GOFLAGS=-mod=mod && go vet . && go test .)

echo "==> all checks passed"
