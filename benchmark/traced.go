package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lsgraph"
	"lsgraph/internal/httpserve"
	"lsgraph/internal/wal"
)

// The traced run is a separate in-process run. It opens the layers the
// served workloads cross itself, with the daemon's options, and replays
// the workload's seeded operation stream by calling the public functions
// in the order the HTTP handlers call them, recording a span around each
// call. Work on goroutines it cannot wrap (the shard writers' apply and
// publish) is read from public counters and histograms as before/after
// deltas. Nothing inside the program is instrumented for it.

// layerMetrics lists every per-layer metric and its unit. Every workload
// prints all of them; a layer the workload leaves idle reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"httpserve.decode_us", "us"},
	{"httpserve.shed_pct", "%"},
	{"httpserve.residual_pct", "%"},
	{"serve.enqueue_us_p50", "us"},
	{"serve.enqueue_us_p99", "us"},
	{"serve.flush_ms_p50", "ms"},
	{"serve.flush_ms_p99", "ms"},
	{"serve.publish_ms_p50", "ms"},
	{"serve.publish_ms_p99", "ms"},
	{"serve.publish_share", "ratio"},
	{"serve.edges_per_publish", "edges"},
	{"serve.coalesced_pct", "%"},
	{"serve.queue_depth_p99", "batches"},
	{"serve.visibility_lag_p99_ms", "ms"},
	{"serve.view_us", "us"},
	{"serve.degree_us", "us"},
	{"serve.neighbors_us", "us"},
	{"wal.bytes_per_edge", "B/edge"},
	{"wal.fsyncs_per_s", "1/s"},
	{"wal.append_us", "us"},
	{"wal.replay_eps", "edges/s"},
	{"core.insert_ns_per_edge", "ns/edge"},
	{"core.delete_ns_per_edge", "ns/edge"},
	{"core.sort_share", "ratio"},
	{"core.apply_share", "ratio"},
	{"core.bulk_group_pct", "%"},
	{"core.snapshot_ns_per_edge", "ns/edge"},
	{"core.bytes_per_edge", "B/edge"},
	{"core.index_bytes_per_edge", "B/edge"},
	{"hitree.promotions", "count"},
	{"algo.bfs_ns_per_edge", "ns/edge"},
	{"algo.pagerank_ns_per_edge", "ns/edge"},
	{"algo.cc_ns_per_edge", "ns/edge"},
	{"algo.view_bfs_ns_per_edge", "ns/edge"},
	{"algo.view_pagerank_ns_per_edge", "ns/edge"},
	{"algo.view_cc_ns_per_edge", "ns/edge"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.heap_bytes_per_edge", "B/edge"},
	{"trace.overhead_pct", "%"},
}

func runTraced(c config, untraced outcome) (metrics, error) {
	m := metrics{}
	for _, l := range layerMetrics {
		m.set(l.name, 0, l.unit)
	}
	lsgraph.EnableMetrics(true)
	defer lsgraph.EnableMetrics(false)
	rec := newRecorder()
	var err error
	switch c.workload {
	case "stream":
		err = tracedStream(m, rec, fullSize, c.seed, int(c.seconds), untraced.untraced)
	case "ingest":
		batches := zipfBatches(c.seed^0x1a6e57, fullSize.vertices(), ingestTotal(c.seconds), ingestBatch)
		err = tracedServed(c, m, rec, fullSize, servedReplay{writes: batches, group: ingestGroup, analytics: true}, untraced.untraced)
	case "mixed":
		ops, nw := mixedOps(c.seed, c.seconds, fullSize.vertices())
		batches := zipfBatches(c.seed^0x1a6e57, fullSize.vertices(), nw, mixedWriteBatch)
		err = tracedServed(c, m, rec, fullSize, servedReplay{writes: batches, ops: ops}, untraced.untraced)
	}
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	path := filepath.Join(c.workDir, fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
	if err := rec.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# traced run: %d spans written to %s\n", len(rec.spans), path)
	return m, nil
}

// tracedStream replays rounds stream rounds on a fresh graph with metrics
// on. untraced, when non-nil, holds the untraced run's per-call medians
// for the overhead comparison.
func tracedStream(m metrics, rec *recorder, sz size, seed uint64, rounds int, untraced map[string]float64) error {
	st := setupStream(sz, seed, 1)
	batches, _ := streamInputs(sz, seed)
	rt := readRuntime()
	before, err := takeObs()
	if err != nil {
		return err
	}
	g := st.g
	var ins, del, snap, bfs, rank, cc []float64 // ns per edge
	var insMs, delMs, bfsMs, rankMs, ccMs []float64
	call := func(name string, id uint64, f func()) float64 {
		s := rec.begin(name, id)
		f()
		return float64(rec.end(s).Nanoseconds())
	}
	for r := 0; r < rounds; r++ {
		id := uint64(r)
		src, dst := streamBatchEdges(batches, st.keys, sz.batch)
		root := rec.begin("stream.round", id)
		ns := call("core.InsertBatch", id, func() { g.InsertBatch(src, dst) })
		ins, insMs = append(ins, ns/float64(len(src))), append(insMs, ns/1e6)
		edges := float64(g.NumEdges())
		ns = call("algo.BFS", id, func() { lsgraph.BFSLevels(g, 0) })
		bfs, bfsMs = append(bfs, ns/edges), append(bfsMs, ns/1e6)
		ns = call("algo.PageRank", id, func() { lsgraph.PageRank(g, streamPRIters) })
		rank, rankMs = append(rank, ns/edges), append(rankMs, ns/1e6)
		ns = call("algo.CC", id, func() { lsgraph.ConnectedComponents(g) })
		cc, ccMs = append(cc, ns/edges), append(ccMs, ns/1e6)
		ns = call("core.Snapshot", id, func() { g.Snapshot() })
		snap = append(snap, ns/edges)
		ns = call("core.DeleteBatch", id, func() { g.DeleteBatch(src, dst) })
		del, delMs = append(del, ns/float64(len(src))), append(delMs, ns/1e6)
		rec.end(root)
	}
	after, err := takeObs()
	if err != nil {
		return err
	}
	if g.NumEdges() != uint64(len(st.base)) {
		return fmt.Errorf("stream: %d edges after the traced rounds, want %d", g.NumEdges(), len(st.base))
	}
	edges := float64(g.NumEdges())
	coreLayers(m, before, after)
	m.set("core.insert_ns_per_edge", median(ins), "ns/edge")
	m.set("core.delete_ns_per_edge", median(del), "ns/edge")
	m.set("core.snapshot_ns_per_edge", median(snap), "ns/edge")
	m.set("core.bytes_per_edge", float64(g.MemoryUsage())/edges, "B/edge")
	m.set("core.index_bytes_per_edge", float64(g.IndexMemory())/edges, "B/edge")
	m.set("algo.bfs_ns_per_edge", median(bfs), "ns/edge")
	m.set("algo.pagerank_ns_per_edge", median(rank), "ns/edge")
	m.set("algo.cc_ns_per_edge", median(cc), "ns/edge")
	runtimeLayers(m, rt, g.NumEdges())
	if untraced != nil {
		traced := median(insMs) + median(delMs) + median(bfsMs) + median(rankMs) + median(ccMs)
		base := untraced["insert"] + untraced["delete"] + untraced["bfs"] + untraced["pagerank"] + untraced["cc"]
		m.set("trace.overhead_pct", 100*(traced-base)/base, "%")
		fmt.Printf("# stream traced vs untraced medians (ms): insert %.3f/%.3f delete %.3f/%.3f bfs %.3f/%.3f pagerank %.3f/%.3f cc %.3f/%.3f\n",
			median(insMs), untraced["insert"], median(delMs), untraced["delete"], median(bfsMs), untraced["bfs"],
			median(rankMs), untraced["pagerank"], median(ccMs), untraced["cc"])
	}
	return nil
}

// servedReplay is a served workload's operation stream: write batches
// posted in commit groups of group batches (ingest), or ops paced on
// their schedule (mixed).
type servedReplay struct {
	writes    []writeBatch
	group     int
	analytics bool // ingest's kernel passes after the last flush
	ops       []mixedOp
}

// openServedStore opens a store the way lsgraphd opens a created graph.
func openServedStore(dir string) (*lsgraph.Store, error) {
	return lsgraph.OpenStore(1024,
		lsgraph.WithShards(2),
		lsgraph.WithMaxQueue(64),
		lsgraph.WithDurability(dir, lsgraph.DurabilityOptions{Fsync: "interval", FsyncInterval: 50 * time.Millisecond}))
}

// tracedServed replays a served workload in-process against a durable
// Store opened like the daemon's.
func tracedServed(c config, m metrics, rec *recorder, sz size, rp servedReplay, untraced map[string]float64) error {
	dir := filepath.Join(c.workDir, "traced-data")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sb := newServedBase(sz, c.seed)
	st, err := openServedStore(dir)
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	maxEdges := 1 << 24
	for lo := 0; lo < len(sb.bodies); lo += preloadGroup {
		for _, body := range sb.bodies[lo:min(lo+preloadGroup, len(sb.bodies))] {
			src, dst, err := httpserve.DecodeEdges(httpserve.ContentTypeBinary, bytes.NewReader(body), maxEdges)
			if err != nil {
				return err
			}
			st.InsertBatch(src, dst)
		}
		st.Flush()
	}

	rt := readRuntime()
	statsBefore := st.Stats()
	before, err := takeObs()
	if err != nil {
		return err
	}
	depths, stopSampler := sampleQueueDepth(st)
	start := time.Now()

	acked := make([]bool, len(rp.writes))
	var decode, enqueue []float64 // microseconds
	write := func(i int, id uint64) {
		s := rec.begin("httpserve.ingest", id)
		defer rec.end(s)
		if st.Saturated() { // the handler's admission check: a 429
			return
		}
		d := rec.begin("httpserve.DecodeEdges", id)
		src, dst, err := httpserve.DecodeEdges(httpserve.ContentTypeBinary, bytes.NewReader(rp.writes[i].body), maxEdges)
		decode = append(decode, float64(rec.end(d).Nanoseconds())/1e3)
		if err != nil {
			panic(err) // the bodies are our own encoding
		}
		e := rec.begin("serve.InsertBatch", id)
		st.InsertBatch(src, dst)
		enqueue = append(enqueue, float64(rec.end(e).Nanoseconds())/1e3)
		acked[i] = true
	}
	flush := func(id uint64) {
		f := rec.begin("serve.Flush", id)
		st.Flush()
		rec.end(f)
	}
	var view, degree, neighbors []float64 // microseconds
	viewKernel := map[string][]float64{}  // ns per edge
	onView := func(name string, id uint64, f func(v *lsgraph.StoreView)) {
		s := rec.begin("httpserve."+name, id)
		t := rec.begin("serve.View", id)
		v := st.View()
		vt := rec.end(t)
		f(v)
		t = rec.begin("serve.Release", id)
		v.Release()
		vt += rec.end(t)
		view = append(view, float64(vt.Nanoseconds())/1e3)
		rec.end(s)
	}
	kernel := func(name string, id uint64) {
		onView("kernel", id, func(v *lsgraph.StoreView) {
			s := rec.begin("algo.view_"+name, id)
			switch name {
			case "bfs":
				lsgraph.BFSLevels(v, 0)
			case "pagerank":
				lsgraph.PageRank(v, streamPRIters)
			case "cc":
				lsgraph.ConnectedComponents(v)
			}
			ns := float64(rec.end(s).Nanoseconds())
			viewKernel[name] = append(viewKernel[name], ns/float64(v.NumEdges()))
		})
	}
	degreeOp := func(u uint32, id uint64) uint32 {
		var d uint32
		onView("degree", id, func(v *lsgraph.StoreView) {
			s := rec.begin("serve.Degree", id)
			d = v.Degree(u)
			degree = append(degree, float64(rec.end(s).Nanoseconds())/1e3)
		})
		return d
	}

	if rp.ops == nil {
		for lo := 0; lo < len(rp.writes); lo += rp.group {
			id := uint64(lo / rp.group)
			g := rec.begin("commit-group", id)
			for i := lo; i < min(lo+rp.group, len(rp.writes)); i++ {
				write(i, id)
			}
			flush(id)
			rec.end(g)
		}
	} else {
		t0 := time.Now()
		for i, op := range rp.ops {
			time.Sleep(time.Until(t0.Add(time.Duration(op.due * float64(time.Second)))))
			id := uint64(i)
			switch op.kind {
			case opDegree:
				degreeOp(op.vertex, id)
			case opNeighbors:
				onView("neighbors", id, func(v *lsgraph.StoreView) {
					s := rec.begin("serve.Neighbors", id)
					neighborsLimited(v, op.vertex, neighborsLimit)
					neighbors = append(neighbors, float64(rec.end(s).Nanoseconds())/1e3)
				})
			case opKhop:
				onView("khop", id, func(v *lsgraph.StoreView) { khop(v, op.vertex, khopDepth) })
			case opKernel:
				kernel(op.kernel, id)
			case opWrite:
				write(op.write, id)
			}
		}
		flush(uint64(len(rp.ops)))
	}
	wall := time.Since(start).Seconds()
	stopSampler()
	statsAfter := st.Stats()
	after, err := takeObs()
	if err != nil {
		return err
	}
	if rp.analytics {
		for p := 0; p < analyticsPass; p++ {
			for _, k := range kernels {
				kernel(k, uint64(p))
			}
		}
	}

	// The final check, through the same view calls the degree handler makes.
	ref := reference(sb.keys, rp.writes, acked)
	sample := degreeSample(c.seed^0x5a3b1e, sz.vertices())
	check := func(what string, s *lsgraph.Store) error {
		return checkServed(what, s.NumEdges(), func(u uint32) (uint32, error) { return degreeOp(u, 0), nil }, ref, sample)
	}
	if err := check("traced after flush", st); err != nil {
		return err
	}
	runtimeLayers(m, rt, st.NumEdges())

	starts := st.Partition().Starts
	t := rec.begin("serve.Close", 0)
	st.Close()
	rec.end(t)
	st = nil
	t = rec.begin("lsgraph.OpenStore", 0)
	st, err = openServedStore(dir)
	openDur := rec.end(t)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if err := check("traced after reopen", st); err != nil {
		return err
	}
	if r := st.Recovery(); r.ReplayedEdges > 0 {
		m.set("wal.replay_eps", float64(r.ReplayedEdges)/openDur.Seconds(), "edges/s")
	}

	// Layer metrics from the spans.
	m.set("httpserve.decode_us", median(decode), "us")
	m.set("serve.enqueue_us_p50", median(enqueue), "us")
	m.set("serve.enqueue_us_p99", percentile(enqueue, 0.99), "us")
	flushes := rec.durations("serve.Flush")
	m.set("serve.flush_ms_p50", median(flushes), "ms")
	m.set("serve.flush_ms_p99", percentile(flushes, 0.99), "ms")
	m.set("serve.view_us", median(view), "us")
	m.set("serve.degree_us", median(degree), "us")
	m.set("serve.neighbors_us", median(neighbors), "us")
	for _, k := range kernels {
		m.set("algo.view_"+k+"_ns_per_edge", median(viewKernel[k]), "ns/edge")
	}
	m.set("serve.queue_depth_p99", percentile(*depths, 0.99), "batches")

	// Layer metrics from the writers' public counters and histograms.
	applyNs := coreLayers(m, before, after)
	pub := histDelta(after.hist(seriesPublish), before.hist(seriesPublish))
	vis := histDelta(after.hist(seriesVisibility), before.hist(seriesVisibility))
	m.set("serve.publish_ms_p50", pub.quantile(0.5)/1e6, "ms")
	m.set("serve.publish_ms_p99", pub.quantile(0.99)/1e6, "ms")
	if pub.Sum+applyNs > 0 {
		m.set("serve.publish_share", pub.Sum/(pub.Sum+applyNs), "ratio")
	}
	m.set("serve.visibility_lag_p99_ms", vis.quantile(0.99)/1e6, "ms")
	edges := float64(statsAfter.EdgesEnqueued - statsBefore.EdgesEnqueued)
	if pubs := statsAfter.SnapshotsPublished - statsBefore.SnapshotsPublished; pubs > 0 {
		m.set("serve.edges_per_publish", edges/float64(pubs), "edges")
	}
	if len(enqueue) > 0 {
		m.set("serve.coalesced_pct", 100*float64(statsAfter.CoalescedBatches-statsBefore.CoalescedBatches)/float64(len(enqueue)), "%")
	}
	if edges > 0 {
		m.set("core.insert_ns_per_edge", applyNs/edges, "ns/edge")
		m.set("wal.bytes_per_edge", float64(statsAfter.WALBytes-statsBefore.WALBytes)/edges, "B/edge")
	}
	m.set("wal.fsyncs_per_s", float64(statsAfter.WALFsyncs-statsBefore.WALFsyncs)/wall, "1/s")
	fmt.Printf("# %s writer time: publish %.1f ms, batch apply %.1f ms (%.1f%% publish)\n",
		c.workload, pub.Sum/1e6, applyNs/1e6, 100*pub.Sum/max(1, pub.Sum+applyNs))

	// E2E write latency against the traced decode + enqueue.
	if untraced != nil && len(decode) > 0 {
		inProc := make([]float64, len(decode))
		for i := range decode {
			inProc[i] = (decode[i] + enqueue[i]) / 1e3
		}
		e2e := untraced["write_p50"]
		m.set("httpserve.residual_pct", 100*(e2e-median(inProc))/e2e, "%")
		if untraced["writes"] > 0 {
			m.set("httpserve.shed_pct", 100*untraced["shed"]/untraced["writes"], "%")
		}
		fmt.Printf("# %s write p50: untraced over HTTP %.3f ms, traced decode+enqueue %.3f ms\n", c.workload, e2e, median(inProc))
	}

	appendUs, err := walAppendPass(filepath.Join(c.workDir, "wal-pass"), starts, rp)
	if err != nil {
		return err
	}
	m.set("wal.append_us", appendUs, "us")
	return nil
}

// sampleQueueDepth samples st.QueueDepth every millisecond until stop is
// called; stop returns once the sampler has exited.
func sampleQueueDepth(st *lsgraph.Store) (*[]float64, func()) {
	var depths []float64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				depths = append(depths, float64(st.QueueDepth()))
			}
		}
	}()
	return &depths, func() { close(done); wg.Wait() }
}

// walAppendPass replays the write batches through the WAL alone: each
// batch split by the store's shard ranges and appended per shard, with
// SyncAll at each commit point, under the daemon's fsync policy. It
// returns the median microseconds to append one batch.
func walAppendPass(dir string, starts []uint32, rp servedReplay) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	lg, err := wal.OpenLog(dir, len(starts), 0, wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return 0, err
	}
	shardOf := func(v uint32) int { return sort.Search(len(starts), func(i int) bool { return starts[i] > v }) - 1 }
	group := rp.group
	if group == 0 {
		group = len(rp.writes) // mixed commits once, at its final flush
	}
	var out []float64
	for i, b := range rp.writes {
		src := make([][]uint32, len(starts))
		dst := make([][]uint32, len(starts))
		for j := range b.src {
			s := shardOf(b.src[j])
			src[s], dst[s] = append(src[s], b.src[j]), append(dst[s], b.dst[j])
		}
		t := time.Now()
		for s := range src {
			if len(src[s]) > 0 {
				if _, err := lg.Append(s, wal.OpInsert, uint64(i), src[s], dst[s]); err != nil {
					lg.Close()
					return 0, err
				}
			}
		}
		out = append(out, float64(time.Since(t).Nanoseconds())/1e3)
		if (i+1)%group == 0 {
			if err := lg.SyncAll(); err != nil {
				lg.Close()
				return 0, err
			}
		}
	}
	return median(out), lg.Close()
}

// neighborsLimited copies up to limit neighbors of u, as the neighbors
// handler does.
func neighborsLimited(v *lsgraph.StoreView, u uint32, limit int) []uint32 {
	ns := make([]uint32, 0, min(int(v.Degree(u)), limit))
	v.NeighborBlocks(u, func(block []uint32) bool {
		room := limit - len(ns)
		if len(block) > room {
			block = block[:room]
		}
		ns = append(ns, block...)
		return len(ns) < limit
	})
	return ns
}

// khop is the khop handler's depth-bounded BFS over a pinned view, with
// its bitset of visited vertices.
func khop(v *lsgraph.StoreView, src uint32, depth int) int {
	n := v.NumVertices()
	if src >= n {
		return 0
	}
	seen := make([]uint64, (n+63)/64)
	mark := func(u uint32) bool {
		w, b := u/64, uint64(1)<<(u%64)
		if seen[w]&b != 0 {
			return false
		}
		seen[w] |= b
		return true
	}
	mark(src)
	frontier := []uint32{src}
	reached := 1
	for hop := 0; hop < depth && len(frontier) > 0; hop++ {
		var next []uint32
		for _, u := range frontier {
			v.NeighborBlocks(u, func(block []uint32) bool {
				for _, w := range block {
					if mark(w) {
						next = append(next, w)
					}
				}
				return true
			})
		}
		reached += len(next)
		frontier = next
	}
	return reached
}
