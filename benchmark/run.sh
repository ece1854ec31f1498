#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root: benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Everything the build writes (Go build cache included) stays under
# .bench_build/, so a run reads and writes only inside its checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
