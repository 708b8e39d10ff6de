#!/usr/bin/env bash
# Builds auditbench from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/auditbench/run.sh --workload search-cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file the benchmark
# writes stay under .bench_build/ at the root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= TMPDIR="$build/tmp"
(cd "$root/cmd/auditbench" && go build -o "$build/auditbench" .)
exec "$build/auditbench" "$@"
