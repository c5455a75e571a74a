package httpserve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"lsgraph"
)

// handleHealthz answers 200 {"status":"ok"} while serving and 503
// {"status":"draining"} once Close has begun, so load balancers and the
// load harness can gate on readiness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	// Partition-map introspection per graph: epoch, range starts, and the
	// live skew gauge, so operators can see a resharding take effect (or
	// the need for one) from the health probe alone. Durable graphs also
	// report what the last boot recovered, so "did the restart replay the
	// WAL?" is answerable from the health probe too.
	parts := map[string]any{}
	recov := map[string]any{}
	for _, n := range s.GraphNames() {
		if st := s.store(n); st != nil {
			p := st.Partition()
			parts[n] = map[string]any{
				"epoch":    p.Epoch,
				"starts":   p.Starts,
				"skew_pct": p.SkewPct,
			}
			if st.Durable() {
				recov[n] = st.Recovery()
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"graphs":     len(parts),
		"partitions": parts,
		"durable":    s.Durable(),
		"recovery":   recov,
	})
}

// graphSummary is one entry of the graph listing and the body of the
// per-graph stats endpoint.
type graphSummary struct {
	Name       string                `json:"name"`
	Vertices   uint32                `json:"vertices"`
	Edges      uint64                `json:"edges"`
	Epoch      uint64                `json:"epoch"`
	Shards     int                   `json:"shards"`
	MaxQueue   int                   `json:"max_queue"`
	QueueDepth int                   `json:"queue_depth"`
	Saturated  bool                  `json:"saturated"`
	Stats      lsgraph.StoreStats    `json:"stats"`
	Partition  lsgraph.PartitionInfo `json:"partition"`
	Durable    bool                  `json:"durable"`
	// Recovery is what the store's last open loaded and replayed; nil on
	// an in-memory graph.
	Recovery *lsgraph.RecoveryStats `json:"recovery,omitempty"`
}

func summarize(t *tenant) graphSummary {
	st := t.store
	gs := graphSummary{
		Name:       t.name,
		Vertices:   st.NumVertices(),
		Edges:      st.NumEdges(),
		Epoch:      st.Epoch(),
		Shards:     st.Shards(),
		MaxQueue:   st.MaxQueue(),
		QueueDepth: st.QueueDepth(),
		Saturated:  st.Saturated(),
		Stats:      st.Stats(),
		Partition:  st.Partition(),
		Durable:    st.Durable(),
	}
	if gs.Durable {
		r := st.Recovery()
		gs.Recovery = &r
	}
	return gs
}

// handleListGraphs returns every registered graph's summary.
func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	names := s.GraphNames()
	out := make([]graphSummary, 0, len(names))
	for _, n := range names {
		s.mu.RLock()
		t := s.graphs[n]
		s.mu.RUnlock()
		if t != nil {
			out = append(out, summarize(t))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

// handleCreateGraph creates the named graph from an optional JSON
// GraphConfig body: 201 on creation, 200 when it already exists with the
// same resolved config, 409 on a config mismatch.
func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	name := r.PathValue("graph")
	var gc GraphConfig
	if r.ContentLength != 0 {
		if err := decodeJSONBody(r, &gc); err != nil {
			writeError(w, http.StatusBadRequest, "bad graph config: %v", err)
			return
		}
	}
	resolved, created, err := s.CreateGraph(name, gc)
	if err == errDraining {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if err != nil {
		status := http.StatusBadRequest
		if !created && resolved != (GraphConfig{}) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, map[string]any{"name": name, "config": resolved, "created": created})
}

// handleGraphStats returns the named graph's summary.
func (s *Server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	t := s.graphs[r.PathValue("graph")]
	s.mu.RUnlock()
	if t == nil {
		writeError(w, http.StatusNotFound, "graph %q not found", r.PathValue("graph"))
		return
	}
	writeJSON(w, http.StatusOK, summarize(t))
}

// handleDropGraph closes and removes the named graph.
func (s *Server) handleDropGraph(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	name := r.PathValue("graph")
	if !s.DropGraph(name) {
		writeError(w, http.StatusNotFound, "graph %q not found", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

// handleIngest enqueues one edge batch: NDJSON or binary body (codec.go),
// ?op=insert (default) or ?op=delete. Admission runs before the body is
// read, so shed requests cost neither decode nor bandwidth; accepted
// batches answer 202 immediately — visibility follows the store's
// asynchronous contract (POST /flush to wait).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	t, err := s.lookup(r.PathValue("graph"), true)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	op := r.URL.Query().Get("op")
	if op == "" {
		op = "insert"
	}
	if op != "insert" && op != "delete" {
		writeError(w, http.StatusBadRequest, "bad op %q (want insert or delete)", op)
		return
	}
	if !s.admitIngest(w, t.store) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// 8 bytes encode one binary edge; NDJSON edges are larger, so this
	// bound is safe for both formats.
	maxEdges := int(s.cfg.MaxBodyBytes / 8)
	src, dst, err := DecodeEdges(r.Header.Get("Content-Type"), r.Body, maxEdges)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "decode edges: %v", err)
		return
	}
	if op == "insert" {
		t.store.InsertBatch(src, dst)
	} else {
		t.store.DeleteBatch(src, dst)
	}
	obsIngestEdges.Add(uint64(len(src)))
	obsIngestBatches.Inc()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"graph":       t.name,
		"op":          op,
		"edges":       len(src),
		"queue_depth": t.store.QueueDepth(),
	})
}

// handleFlush blocks until every batch enqueued before the call is applied
// and published, then reports the epoch reached. The synchronization
// barrier for tests and benchmarks.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	t, err := s.lookup(r.PathValue("graph"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	t.store.Flush()
	writeJSON(w, http.StatusOK, map[string]any{"graph": t.name, "epoch": t.store.Epoch()})
}

// pathVertex parses the {vertex} path segment.
func pathVertex(r *http.Request) (uint32, error) {
	return parseUint32(r.PathValue("vertex"))
}

// handleDegree returns one vertex's out-degree on a pinned view, so the
// degree and the reported epoch are from the same cut.
func (s *Server) handleDegree(w http.ResponseWriter, r *http.Request) {
	t, err := s.lookup(r.PathValue("graph"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	u, err := pathVertex(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vertex: %v", err)
		return
	}
	v := t.store.View()
	defer v.Release()
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":  t.name,
		"vertex": u,
		"degree": v.Degree(u),
		"epoch":  v.Epoch(),
	})
}

// handleNeighbors returns one vertex's sorted adjacency on a pinned view.
// ?limit=N truncates the list (default Config.MaxNeighbors); "returned" <
// "degree" signals truncation.
func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	t, err := s.lookup(r.PathValue("graph"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	u, err := pathVertex(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vertex: %v", err)
		return
	}
	limit := s.cfg.MaxNeighbors
	if lq := r.URL.Query().Get("limit"); lq != "" {
		l, err := strconv.Atoi(lq)
		if err != nil || l < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", lq)
			return
		}
		if l < limit {
			limit = l
		}
	}
	v := t.store.View()
	defer v.Release()
	deg := v.Degree(u)
	ns := make([]uint32, 0, min(int(deg), limit))
	v.NeighborBlocks(u, func(block []uint32) bool {
		room := limit - len(ns)
		if room <= 0 {
			return false
		}
		if len(block) > room {
			block = block[:room]
		}
		ns = append(ns, block...)
		return len(ns) < limit
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":     t.name,
		"vertex":    u,
		"degree":    deg,
		"returned":  len(ns),
		"neighbors": ns,
		"epoch":     v.Epoch(),
	})
}

// maxKhopDepth caps ?depth: beyond a few hops on a power-law graph the
// frontier is the whole graph anyway, and the endpoint stays O(reached).
const maxKhopDepth = 16

// handleKhop runs a depth-bounded BFS from ?src on a pinned view and
// returns the reach count and per-hop frontier sizes — the "range scan" of
// the workload matrix: heavier than a point lookup, far lighter than a
// kernel.
func (s *Server) handleKhop(w http.ResponseWriter, r *http.Request) {
	t, err := s.lookup(r.PathValue("graph"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	q := r.URL.Query()
	src, err := parseUint32(q.Get("src"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad src: %v", err)
		return
	}
	depth := 2
	if dq := q.Get("depth"); dq != "" {
		d, err := strconv.Atoi(dq)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad depth %q", dq)
			return
		}
		depth = min(d, maxKhopDepth)
	}
	start := time.Now()
	v := t.store.View()
	defer v.Release()
	reached, frontiers := khop(v, src, depth)
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":     t.name,
		"src":       src,
		"depth":     depth,
		"reached":   reached,
		"frontiers": frontiers,
		"epoch":     v.Epoch(),
		"nanos":     time.Since(start).Nanoseconds(),
	})
}

// khop is a sequential depth-bounded BFS over a pinned view: per-request
// work is proportional to the edges actually touched, so it needs no
// worker pool.
func khop(v *lsgraph.StoreView, src uint32, depth int) (reached int, frontiers []int) {
	n := v.NumVertices()
	if src >= n {
		return 0, nil
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
	reached = 1
	for hop := 0; hop < depth && len(frontier) > 0; hop++ {
		var next []uint32
		for _, u := range frontier {
			v.NeighborBlocks(u, func(block []uint32) bool {
				for _, nb := range block {
					if mark(nb) {
						next = append(next, nb)
					}
				}
				return true
			})
		}
		frontiers = append(frontiers, len(next))
		reached += len(next)
		frontier = next
	}
	return reached, frontiers
}

// handleKernel runs one analytics kernel ({kernel} = bfs | pagerank | cc)
// on a pinned view, bounded by the kernel admission semaphore. Responses
// are summaries (reach counts, component counts, top ranks), not full
// per-vertex vectors — those belong in a bulk-export endpoint, not a
// query-path JSON body.
func (s *Server) handleKernel(w http.ResponseWriter, r *http.Request) {
	t, err := s.lookup(r.PathValue("graph"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	kernel := r.PathValue("kernel")
	release, ok := s.admitKernel(w)
	if !ok {
		return
	}
	defer release()
	q := r.URL.Query()
	v := t.store.View()
	defer v.Release()
	start := time.Now()
	resp := map[string]any{
		"graph":    t.name,
		"kernel":   kernel,
		"epoch":    v.Epoch(),
		"vertices": v.NumVertices(),
		"edges":    v.NumEdges(),
	}
	switch kernel {
	case "bfs":
		src, err := parseUint32(q.Get("src"))
		if q.Get("src") != "" && err != nil {
			writeError(w, http.StatusBadRequest, "bad src: %v", err)
			return
		}
		// A src beyond the view's vertex space (not yet referenced by any
		// enqueued edge) reaches nothing, as in khop.
		var levels []int32
		if src < v.NumVertices() {
			levels = lsgraph.BFSLevels(v, src)
		}
		reached, maxDepth := 0, int32(-1)
		for _, l := range levels {
			if l >= 0 {
				reached++
				if l > maxDepth {
					maxDepth = l
				}
			}
		}
		resp["src"] = src
		resp["reached"] = reached
		resp["max_depth"] = maxDepth
	case "pagerank":
		iters := 10
		if iq := q.Get("iters"); iq != "" {
			iters, err = strconv.Atoi(iq)
			if err != nil || iters <= 0 || iters > 1000 {
				writeError(w, http.StatusBadRequest, "bad iters %q (want 1..1000)", iq)
				return
			}
		}
		topK := 10
		if tq := q.Get("top"); tq != "" {
			topK, err = strconv.Atoi(tq)
			if err != nil || topK < 0 || topK > 100 {
				writeError(w, http.StatusBadRequest, "bad top %q (want 0..100)", tq)
				return
			}
		}
		ranks := lsgraph.PageRank(v, iters)
		resp["iters"] = iters
		resp["top"] = topRanks(ranks, topK)
	case "cc":
		labels := lsgraph.ConnectedComponents(v)
		sizes := make(map[uint32]int)
		for _, l := range labels {
			sizes[l]++
		}
		largest := 0
		for _, n := range sizes {
			if n > largest {
				largest = n
			}
		}
		resp["components"] = len(sizes)
		resp["largest"] = largest
	default:
		writeError(w, http.StatusNotFound, "unknown kernel %q (want bfs, pagerank, or cc)", kernel)
		return
	}
	resp["nanos"] = time.Since(start).Nanoseconds()
	writeJSON(w, http.StatusOK, resp)
}

// handleRebalance re-partitions the named graph's vertex space toward
// equal per-shard edge mass (Store.Rebalance) and returns the move
// summary plus the resulting partition layout. The call blocks for the
// duration of the resharding — boundary moves quiesce only the two shard
// writers they touch, so ingest and reads keep flowing meanwhile — and is
// admitted through the kernel semaphore, since like a kernel it is a
// bounded-concurrency heavyweight operation.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	t, err := s.lookup(r.PathValue("graph"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	release, ok := s.admitKernel(w)
	if !ok {
		return
	}
	defer release()
	res, err := t.store.Rebalance()
	if err != nil {
		writeError(w, http.StatusConflict, "rebalance: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":     t.name,
		"result":    res,
		"partition": t.store.Partition(),
	})
}

// handleCheckpoint publishes a durable checkpoint of the named graph and
// garbage-collects the WAL segments it covers, bounding how much the next
// recovery must replay. It flushes first so the checkpoint covers every
// batch accepted before the call. Like rebalance it is admitted through
// the kernel semaphore: snapshot serialization is a bounded-concurrency
// heavyweight, not a query. 409 on an in-memory graph.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	t, err := s.lookup(r.PathValue("graph"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if !t.store.Durable() {
		writeError(w, http.StatusConflict, "graph %q is not durable (server has no -data dir)", t.name)
		return
	}
	release, ok := s.admitKernel(w)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	t.store.Flush()
	if err := t.store.Checkpoint(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st := t.store.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":         t.name,
		"epoch":         t.store.Epoch(),
		"checkpoints":   st.Checkpoints,
		"segments_gced": st.SegmentsGCed,
		"wal_records":   st.WALRecords,
		"wal_bytes":     st.WALBytes,
		"nanos":         time.Since(start).Nanoseconds(),
	})
}

// rankedVertex is one entry of PageRank's top-K response.
type rankedVertex struct {
	Vertex uint32  `json:"vertex"`
	Rank   float64 `json:"rank"`
}

// topRanks selects the k highest-ranked vertices by linear insertion into
// a k-sized window — k is capped at 100, so this beats sorting the whole
// rank vector.
func topRanks(ranks []float64, k int) []rankedVertex {
	if k > len(ranks) {
		k = len(ranks)
	}
	top := make([]rankedVertex, 0, k)
	for v, r := range ranks {
		if len(top) == k && r <= top[len(top)-1].Rank {
			continue
		}
		i := len(top)
		if len(top) < k {
			top = append(top, rankedVertex{})
		} else {
			i = len(top) - 1
		}
		for i > 0 && top[i-1].Rank < r {
			top[i] = top[i-1]
			i--
		}
		top[i] = rankedVertex{Vertex: uint32(v), Rank: r}
	}
	return top
}

// decodeJSONBody decodes the request body as JSON into v, rejecting
// unknown fields so config typos fail loudly.
func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
