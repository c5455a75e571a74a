#!/bin/sh
# race.sh -- the single source of truth for the race-detector package list:
# every package with real cross-goroutine traffic (the sharded serving
# layer, the per-shard WAL with its group-commit goroutine, the batch
# pipeline, the worker pool, the sharded metrics registry, and Terrace's
# concurrent block reads over pooled PMA decode scratch). Both `make race`
# and scripts/verify.sh run this script, so the list cannot drift between
# them.
#
# Usage: scripts/race.sh [extra go-test flags...]
set -eu

cd "$(dirname "$0")/.."

go test -race "$@" \
	lsgraph/internal/serve \
	lsgraph/internal/wal \
	lsgraph/internal/core \
	lsgraph/internal/parallel \
	lsgraph/internal/obs \
	lsgraph/internal/trace \
	lsgraph/internal/check \
	lsgraph/internal/algo \
	lsgraph/internal/gen \
	lsgraph/internal/httpserve \
	lsgraph/internal/terrace \
	lsgraph
