#!/usr/bin/env bash
# run.sh — build and run the end-to-end benchmark from the repository root.
#
# Usage: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The benchmark is a module of its own (perfbench/go.mod) that builds the
# repository's packages from source through a replace directive. Every
# cache, temporary file and binary the build writes stays under
# .bench_build/ in the working directory. Build output goes to standard
# error, so the last line of standard output is always the benchmark's
# JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
