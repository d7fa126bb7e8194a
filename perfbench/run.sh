#!/usr/bin/env bash
# Builds reprod and the benchmark driver from this checkout, then runs one
# workload of the repository benchmark. Run from anywhere:
#
#   bash perfbench/run.sh --workload triage --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, scratch stores, measurement records
# and traced-pass spans all stay under .bench_build/ in the checkout
# (or $CARGO_TARGET_DIR when it is set).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/reprod || ! -f perfbench/go.mod ]]; then
  echo "perfbench: $root is not a checkout of the repro module" >&2
  exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/reprod" ./cmd/reprod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -reprod "$out/reprod" -out "$out" "$@"
