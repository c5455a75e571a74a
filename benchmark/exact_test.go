package main

import (
	"testing"

	"lsgraph"
)

// testSize is a small graph for tests: 2^11 vertices.
var testSize = size{scale: 11, rawEdges: 8000, batch: 1000, lookups: 10}

func tracedStreamCounts(t *testing.T, seed uint64) metrics {
	t.Helper()
	m := metrics{}
	if err := tracedStream(m, newRecorder(), testSize, seed, 3, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func tracedIngestCounts(t *testing.T, seed uint64) metrics {
	t.Helper()
	c := config{workload: "ingest", seed: seed, workDir: t.TempDir()}
	batches := zipfBatches(seed, testSize.vertices(), 2*ingestGroup, 64)
	m := metrics{}
	if err := tracedServed(c, m, newRecorder(), testSize, servedReplay{writes: batches, group: ingestGroup}, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

// The exact counts repeat exactly for a seed, and stream's change with it.
func TestExactCountsRepeat(t *testing.T) {
	lsgraph.EnableMetrics(true)
	defer lsgraph.EnableMetrics(false)
	exact := []string{"core.bytes_per_edge", "core.index_bytes_per_edge", "hitree.promotions"}
	a, b, other := tracedStreamCounts(t, 1), tracedStreamCounts(t, 1), tracedStreamCounts(t, 2)
	for _, k := range exact {
		if a[k] != b[k] {
			t.Errorf("%s: %v then %v for the same seed", k, a[k].Value, b[k].Value)
		}
	}
	if a["core.bytes_per_edge"] == other["core.bytes_per_edge"] {
		t.Error("core.bytes_per_edge did not change with the seed")
	}
	x, y := tracedIngestCounts(t, 1), tracedIngestCounts(t, 1)
	if x["wal.bytes_per_edge"] != y["wal.bytes_per_edge"] || x["wal.bytes_per_edge"].Value == 0 {
		t.Errorf("wal.bytes_per_edge: %v then %v for the same seed", x["wal.bytes_per_edge"].Value, y["wal.bytes_per_edge"].Value)
	}
}
