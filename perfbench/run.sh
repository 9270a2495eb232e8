#!/usr/bin/env bash
# Builds the benchmark from the sources next to it and runs it:
#
#   bash perfbench/run.sh --workload simulate|debug|serve --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache, per-run temp dirs and span files all stay
# under .bench_build/perfbench at the repository root, so the benchmark reads
# and writes nothing outside the checkout it is run from.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
