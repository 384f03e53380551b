#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache and temporary files included, so nothing is
# written outside the checkout) and runs it from the root with the
# arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/cubicleos-benchmark" .
if [ -z "${BENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
export BENCH_COMMIT="${BENCH_COMMIT:-unknown}"
cd "$root"
exec "$build/cubicleos-benchmark" "$@"
