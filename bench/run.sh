#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout this is
# run from, then runs it with the arguments given. Everything the Go toolchain
# writes (build cache, temporary files, its own configuration) is kept inside
# .bench_build/ too, so that nothing outside the checkout is touched.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "$0")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown) # a checkout need not be a repository
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bench" .)
exec "$out/bench" "$@"
