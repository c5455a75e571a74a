#!/bin/sh
# bench.sh -- run the update/analytics benchmark sweep and record ns/op per
# benchmark in BENCH_<tag>.json, the repo's performance-trajectory record.
#
# Usage: scripts/bench.sh [tag]     (default tag: the short git commit
#        hash, or "dev" outside a git checkout; or: make bench TAG=mytag)
# Env:   BENCHTIME=10x  pass a different -benchtime (default 1x, a smoke
#        pace -- raise it for trustworthy numbers).
#        BENCHPKGS="./internal/algo"  override the package list.
#        BENCHPAT='NeighborIteration|Kernel'  override the -bench pattern
#        (default ".", everything in the selected packages). With
#        BENCHPKGS=./internal/algo that pattern is `make bench-analytics`:
#        one key per BenchmarkKernel* (each kernel has one body, so there
#        are no blocks/ or callback/ sub-keys) plus the storage-level
#        BenchmarkNeighborIteration/<shape>/{callback,blocks} pairs.
set -eu

cd "$(dirname "$0")/.."

default_tag=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
tag="${1:-$default_tag}"
benchtime="${BENCHTIME:-1x}"
benchpat="${BENCHPAT:-.}"
out="BENCH_${tag}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# The packages that define the engine's perf story: the end-to-end update
# and analytics wrappers (root), the batch pipeline (core), the parallel
# sort (parallel), and the overflow structures. The analytics kernels
# (./internal/algo) are opt-in via BENCHPKGS — see `make bench-analytics`.
pkgs="${BENCHPKGS:-. ./internal/core ./internal/parallel ./internal/ria ./internal/hitree ./internal/pma}"
for pkg in $pkgs; do
	go test -run '^$' -bench "$benchpat" -benchtime "$benchtime" "$pkg"
done | tee /dev/stderr > "$raw"

awk -v tag="$tag" '
	$2 ~ /^[0-9]+$/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
		if (!(name in ns)) order[n++] = name
		ns[name] = $3
	}
	END {
		printf "{\n  \"tag\": \"%s\",\n  \"unit\": \"ns/op\",\n  \"benchmarks\": {\n", tag
		for (i = 0; i < n; i++) {
			name = order[i]
			printf "    \"%s\": %s%s\n", name, ns[name], (i < n-1 ? "," : "")
		}
		printf "  }\n}\n"
	}
' "$raw" > "$out"

echo "wrote $out ($(grep -c ':' "$out") lines)"
