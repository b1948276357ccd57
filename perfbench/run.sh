#!/usr/bin/env bash
# Builds the benchmark driver and cmd/ccnd from source into .bench_build,
# then runs the driver with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload hier-coord --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and Go's own configuration stay
# inside .bench_build, so the benchmark writes nothing outside the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ccnd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ccnd and perfbench/ must exist)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/ccnd" ./cmd/ccnd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -bin "$out" "$@"
