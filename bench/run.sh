#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments from
# the root of the checkout. Everything the build writes (binary, Go build
# cache, and what the go command keeps under $HOME) goes to .bench_build/
# in that root, so nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home"
(cd "$here" && HOME="$out/home" GOCACHE="$out/gocache" GOTOOLCHAIN=local go build -o "$out/aimperf" .)
cd "$root"
exec "$out/aimperf" "$@"
