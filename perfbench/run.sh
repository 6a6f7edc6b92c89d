#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it. Run
# it from the repository root; every argument passes through to the
# benchmark (see perfbench/main.go), for example:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache included, stay under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the flowrank sources are not here" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
