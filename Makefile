GO ?= go

.PHONY: all build test race verify bench bench-obs bench-analytics soak soak-recover fuzz trace-demo loadtest bench-recover clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# Race-detector pass over the packages with real cross-goroutine traffic;
# the package list lives in scripts/race.sh (shared with scripts/verify.sh).
race:
	sh scripts/race.sh

verify:
	sh scripts/verify.sh

# Long-running randomized differential sweep (internal/check simulator)
# against the refgraph oracle. Bound it with SOAK_TIME, e.g.
# `make soak SOAK_TIME=10m`.
SOAK_TIME ?= 2m
soak:
	LSGRAPH_SOAK=1 LSGRAPH_SOAK_TIME=$(SOAK_TIME) \
		$(GO) test -run '^TestSoak$$' -timeout 0 -v ./internal/check

# Short coverage-guided fuzzing pass over every fuzz target; override the
# per-target budget with FUZZTIME, e.g. `make fuzz FUZZTIME=1m`.
fuzz:
	sh scripts/fuzz.sh

# Overhead check for the observability hooks (compare disabled vs enabled,
# and the flight recorder tracing-off vs tracing-on).
bench-obs:
	$(GO) test -run xxx -bench ObsOverhead -count 3 ./internal/core

# Flight-recorder demo: run the traced lsbench workload (4 shards, forced
# coalescing, kernel + view-pin spans), assert every lifecycle phase was
# recorded, and write trace.json — load it in ui.perfetto.dev or
# chrome://tracing. CI uploads trace.json as an artifact.
trace-demo:
	$(GO) run ./cmd/lsbench -exp trace -quick -trace trace.json | tee trace-demo.log
	@grep -q "phase coverage: OK" trace-demo.log || { echo "trace-demo: lifecycle phase coverage incomplete" >&2; rm -f trace-demo.log; exit 1; }
	@rm -f trace-demo.log
	@echo "trace-demo: trace.json written; load it in ui.perfetto.dev"

# Update/analytics benchmark sweep; writes ns/op per benchmark to
# BENCH_<tag>.json (the perf trajectory record). The tag defaults to the
# short git commit hash; override with `make bench TAG=mytag`.
bench:
	sh scripts/bench.sh $(TAG)

# Analytics-kernel smoke: neighbor iteration (callback vs blocks) plus the
# kernel benchmarks on the seeded power-law dataset, recorded to
# BENCH_<tag>.json like `make bench`. Acceptance gate for read-path work.
bench-analytics:
	BENCHPKGS=./internal/algo BENCHPAT='NeighborIteration|Kernel' \
		sh scripts/bench.sh $(TAG)

# End-to-end serving SLO measurement: boot lsgraphd, drive it with the
# open-loop lsload harness (seeded Poisson arrivals, T1/T4/T5 workload
# mixes), and write p50/p90/p99 + throughput to BENCH_pr9.json. Tune with
# LOADTEST_TIME / LOADTEST_RATE / LOADTEST_MIX, e.g.
# `make loadtest LOADTEST_TIME=30s LOADTEST_RATE=1000`.
export LOADTEST_TIME LOADTEST_RATE LOADTEST_MIX LOADTEST_SHARDS LOADTEST_ADDR
loadtest:
	sh scripts/loadtest.sh pr9

# Long-running kill-and-recover sweep: 150 seeded crash scenarios (50
# seeds x 3 shard counts, crash points drawn from the full lifecycle
# matrix), each recovered and differentially checked against the
# acked-records oracle.
soak-recover:
	LSGRAPH_SOAK_RECOVER=1 \
		$(GO) test -count=1 -run '^TestSoakRecover$$' -timeout 0 -v ./internal/check

# Durability benchmark: WAL ingest overhead per fsync policy vs the
# memory-only baseline, plus recovery speed (full replay and
# checkpoint-bounded). Writes BENCH_pr10.json; the acceptance bar is
# <10% ingest overhead at fsync=interval. Tune repetitions with TRIALS.
TRIALS ?= 3
bench-recover:
	$(GO) run ./cmd/lsbench -exp recover -trials $(TRIALS) -json BENCH_pr10.json -tag pr10

clean:
	$(GO) clean ./...
