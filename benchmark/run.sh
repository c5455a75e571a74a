#!/usr/bin/env bash
# Builds lsgraphd and the benchmark from the checkout it is run in, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash benchmark/run.sh --workload stream|ingest|mixed --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/lsgraphd" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the root of an lsgraph checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/lsgraphd" ./cmd/lsgraphd
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" -daemon "$out/lsgraphd" -workdir "$out/work" "$@"
