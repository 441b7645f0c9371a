#!/usr/bin/env bash
# Builds the leakest benchmark from the source tree it sits in and runs it.
#
#   bash leakbench/run.sh --workload truth-placed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# Chrome traces of traced runs go under .bench_build/leakbench; nothing is
# read or written outside the working directory apart from the Go toolchain.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/leakbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/leakbench" .) >&2
exec "$out/leakbench" --out "$out" "$@"
