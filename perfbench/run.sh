#!/usr/bin/env bash
# Builds perfbench from this checkout's sources into .bench_build/ and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload transform --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# configuration) stays under .bench_build/, and no module is downloaded:
# the benchmark imports only the standard library and the repository.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
