#!/usr/bin/env bash
# Builds ledgerbench from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash ledgerbench/run.sh --workload adapt-deep --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache and the run's scratch files all stay
# under .bench_build/ in the repository root; build messages go to
# standard error, so the benchmark's JSON stays the last line of
# standard output.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/ledgerbench" .) >&2
cd "$root"
exec "$out/ledgerbench" --workdir "$out/ledgerbench-work" "$@"
