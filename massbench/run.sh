#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash massbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binary, and the
# per-run provenance, spans and CPU profiles in .bench_build/out/.
set -euo pipefail

root=$PWD
build=$root/.bench_build
rev=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null || true)" = "$root" ]; then
	rev=$(git rev-parse HEAD)
fi

mkdir -p "$build/tmp" "$build/home"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	TMPDIR=$build/tmp HOME=$build/home XDG_CONFIG_HOME=$build/home/.config \
	XDG_CACHE_HOME=$build/home/.cache GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C massbench build -buildvcs=false -o "$build/massbench" .
exec "$build/massbench" --rev "$rev" --out "$build/out" "$@"
