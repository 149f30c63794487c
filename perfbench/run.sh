#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root. Every file the build and the run write stays under
# .bench_build/ in the checkout. Usage:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/go-build" "$out/go-tmp" "$out/gopath"
export GOCACHE="$out/go-build" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
