package lsgraph_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"lsgraph"
)

// TestObservabilityEndToEnd drives the public metrics API through a real
// update/analytics cycle and checks that each instrumented layer reported.
func TestObservabilityEndToEnd(t *testing.T) {
	prev := lsgraph.MetricsEnabled()
	lsgraph.EnableMetrics(true)
	defer lsgraph.EnableMetrics(prev)

	g := lsgraph.New(1 << 10)
	var es []lsgraph.Edge
	for v := uint32(1); v < 600; v++ {
		es = append(es, lsgraph.Edge{Src: 0, Dst: v}, lsgraph.Edge{Src: v, Dst: 0})
	}
	// Small batches keep vertex 0's per-batch group under the bulk-rebuild
	// threshold, so its overflow grows through the per-edge path and
	// crosses the array->RIA promotion.
	for lo := 0; lo < len(es); lo += 8 {
		hi := lo + 8
		if hi > len(es) {
			hi = len(es)
		}
		g.InsertEdges(es[lo:hi])
	}
	lsgraph.BFS(g, 0)
	g.DeleteEdges(es[:100])

	var buf bytes.Buffer
	if err := lsgraph.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lsgraph_batches_total{op="insert"}`,
		`lsgraph_batches_total{op="delete"}`,
		`lsgraph_batch_phase_nanos_count{phase="apply"}`,
		`lsgraph_overflow_promotions_total{from="array",to="ria"}`,
		`lsgraph_ria_slide_elements_count`,
		`lsgraph_algo_nanos_count{kernel="bfs"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %s", want)
		}
	}

	b, err := lsgraph.MetricsSnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	// Vertex 0's degree crosses the array threshold, so the engine must
	// have promoted its overflow and RIA inserts must have been observed.
	if v, ok := snap[`lsgraph_overflow_promotions_total{from="array",to="ria"}`].(float64); !ok || v < 1 {
		t.Errorf("expected at least one array->ria promotion, snapshot has %v", v)
	}
	if v, ok := snap[`lsgraph_edges_changed_total{op="insert"}`].(float64); !ok || v < float64(len(es)) {
		t.Errorf("edges inserted metric %v, want >= %d", v, len(es))
	}
}

// promValue returns the value of the Prometheus series named exactly
// series (name plus labels), or 0 when it has not been exported yet.
func promValue(t *testing.T, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := lsgraph.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	return 0
}

// TestPageRankOnEmptyStoreIsRecorded runs PageRank on a view of a freshly
// created, still-empty Store (what a kernel request to a new lsgraphd
// graph does) and requires the run to be counted like any other kernel run.
func TestPageRankOnEmptyStoreIsRecorded(t *testing.T) {
	prev := lsgraph.MetricsEnabled()
	lsgraph.EnableMetrics(true)
	defer lsgraph.EnableMetrics(prev)

	st := lsgraph.NewStore(0)
	defer st.Close()
	v := st.View()
	defer v.Release()
	if n := v.NumVertices(); n != 0 {
		t.Fatalf("fresh store has %d vertices, want 0", n)
	}

	const series = `lsgraph_algo_nanos_count{kernel="pagerank"}`
	before := promValue(t, series)
	if rank := lsgraph.PageRank(v, 5); len(rank) != 0 {
		t.Fatalf("PageRank on an empty graph returned %d ranks", len(rank))
	}
	if after := promValue(t, series); after != before+1 {
		t.Fatalf("%s went %v -> %v, want one more run", series, before, after)
	}
}
