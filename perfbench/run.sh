#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments (see perfbench/README.md). Run it from the checkout root:
#
#   bash perfbench/run.sh --workload tucker-iter --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary, temporary files and run records all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

if [ -d .git ]; then
	PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi

(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
