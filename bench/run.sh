#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# arguments given: BENCHMARK.json's command. Everything the build writes
# (Go's build cache, the binary) stays inside the checkout, under
# .bench_build/; an up-to-date build costs well under a second.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/bench" ./bench)
cd "$root"
exec "$build/bench" "$@"
