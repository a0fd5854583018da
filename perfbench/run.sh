#!/usr/bin/env bash
# Builds the tdserve benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload td-stream --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes goes
# under .bench_build/ there: the Go build cache, the binary, each run's
# replica stores (which the binary removes when it exits) and the exact
# counts earlier runs recorded. See perfbench/README.md.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
# Keep the toolchain's caches and settings inside the checkout too, and
# offline: the module has no dependencies outside this repository.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd "$here" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
