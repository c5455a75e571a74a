package main

import (
	"encoding/json"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"lsgraph"
)

// obsSnap is a parsed lsgraph.MetricsSnapshotJSON: the public counters and
// log2 histograms the traced run reads as before/after deltas for work
// done on goroutines it cannot wrap (the shard writers).
type obsSnap map[string]json.RawMessage

func takeObs() (obsSnap, error) {
	b, err := lsgraph.MetricsSnapshotJSON()
	if err != nil {
		return nil, err
	}
	var s obsSnap
	return s, json.Unmarshal(b, &s)
}

func (s obsSnap) counter(series string) float64 {
	var v float64
	_ = json.Unmarshal(s[series], &v) // absent series read as 0
	return v
}

// hist is a log2-bucketed histogram: buckets[k] counts samples <= 2^k.
type hist struct {
	Count   float64            `json:"count"`
	Sum     float64            `json:"sum"`
	Buckets map[string]float64 `json:"buckets"`
}

func (s obsSnap) hist(series string) hist {
	var h hist
	_ = json.Unmarshal(s[series], &h) // absent series read as empty
	return h
}

// histDelta returns after minus before, bucket by bucket.
func histDelta(after, before hist) hist {
	d := hist{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Buckets: map[string]float64{}}
	for k, v := range after.Buckets {
		if dv := v - before.Buckets[k]; dv > 0 {
			d.Buckets[k] = dv
		}
	}
	return d
}

// quantile interpolates the q-quantile linearly inside the log2 bucket
// that holds it (bucket le_2^k spans (2^(k-1), 2^k]).
func (h hist) quantile(q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	type bucket struct {
		k int
		n float64
	}
	var bs []bucket
	for name, n := range h.Buckets {
		k, err := strconv.Atoi(strings.TrimPrefix(name, "le_2^"))
		if err == nil {
			bs = append(bs, bucket{k, n})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].k < bs[j].k })
	target := q * h.Count
	cum := 0.0
	for _, b := range bs {
		if cum+b.n >= target {
			lo, hi := math.Ldexp(1, b.k-1), math.Ldexp(1, b.k)
			if b.k == 0 {
				lo = 0
			}
			return lo + (hi-lo)*(target-cum)/b.n
		}
		cum += b.n
	}
	return math.Ldexp(1, bs[len(bs)-1].k)
}

// phaseSeries names the core batch phases in pipeline order.
var phaseSeries = []string{
	`lsgraph_batch_phase_nanos{phase="pack"}`,
	`lsgraph_batch_phase_nanos{phase="sort"}`,
	`lsgraph_batch_phase_nanos{phase="group"}`,
	`lsgraph_batch_phase_nanos{phase="apply"}`,
}

const (
	seriesPublish    = "lsgraph_store_publish_nanos"
	seriesVisibility = "lsgraph_store_visibility_lag_nanos"
	seriesBulk       = `lsgraph_batch_groups_total{path="bulk"}`
	seriesPerEdge    = `lsgraph_batch_groups_total{path="per-edge"}`
	seriesPromote    = `lsgraph_overflow_promotions_total{from="ria",to="hitree"}`
)

// coreLayers fills the core and hitree metrics that come from the batch
// pipeline's own histograms and counters between two snapshots, and
// returns the total batch-phase nanoseconds.
func coreLayers(m metrics, before, after obsSnap) float64 {
	var phases [4]float64
	total := 0.0
	for i, s := range phaseSeries {
		phases[i] = histDelta(after.hist(s), before.hist(s)).Sum
		total += phases[i]
	}
	if total > 0 {
		m.set("core.sort_share", phases[1]/total, "ratio")
		m.set("core.apply_share", phases[3]/total, "ratio")
	}
	bulk := after.counter(seriesBulk) - before.counter(seriesBulk)
	edge := after.counter(seriesPerEdge) - before.counter(seriesPerEdge)
	if bulk+edge > 0 {
		m.set("core.bulk_group_pct", 100*bulk/(bulk+edge), "%")
	}
	m.set("hitree.promotions", after.counter(seriesPromote)-before.counter(seriesPromote), "count")
	return total
}

// runtimeSample reads the Go runtime's GC CPU and total CPU seconds and
// the live heap object bytes.
type runtimeSample struct{ gcCPU, totalCPU, heap float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	rtmetrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), heap: val(2)}
}

// runtimeLayers sets the runtime metrics of the traced span since before.
func runtimeLayers(m metrics, before runtimeSample, edges uint64) {
	after := readRuntime()
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m.set("runtime.gc_cpu_pct", 100*(after.gcCPU-before.gcCPU)/cpu, "%")
	}
	if edges > 0 {
		m.set("runtime.heap_bytes_per_edge", after.heap/float64(edges), "B/edge")
	}
}
