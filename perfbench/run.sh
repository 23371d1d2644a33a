#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload optimize-hybrid --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/gopath"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"
