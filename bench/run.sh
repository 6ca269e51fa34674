#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload paper_gfs --seed 17 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache,
# temporary files, toolchain settings) stays in .bench_build/ at the
# root of the checkout. The binary is rebuilt only when a source file
# is newer than it. Build output goes to standard error, so standard
# output carries nothing but the benchmark's own.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
bin="$build/gfsbench"

if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \
    \( -name '*.go' -o -name go.mod -o -name expected.json \) -newer "$bin" -print -quit)" ]; then
  mkdir -p "$build/tmp"
  (
    cd "$bench"
    GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
    XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off \
    GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 \
      go build -o "$bin" . 1>&2
  )
fi
exec "$bin" "$@"
