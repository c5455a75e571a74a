package core

import (
	"sync/atomic"

	"lsgraph/internal/hitree"
	"lsgraph/internal/trace"
)

// Stats exposes engine-internal counters used by the evaluation.
type Stats struct {
	// RIAToHITree counts promotions of a vertex's overflow from RIA to
	// HITree (§6.2 reports 29-1599 such changes when inserting 10^8 edges).
	RIAToHITree atomic.Uint64
}

// Graph is the LSGraph engine: a directed graph over dense vertex IDs
// [0, n) storing each vertex's out-neighbors in the differentiated
// hierarchical indexed representation. Reads (Degree, ForEachNeighbor,
// analytics) may run concurrently with each other but not with updates;
// the streaming model alternates update and analytics phases (§1).
//
// Internally the vertex space is partitioned into Config.Shards contiguous
// ranges (default 1), each holding its own vertex blocks, edge counter,
// and prepare/apply scratch. With one shard the engine behaves exactly as
// the paper describes. With S > 1, batches routed to different shards may
// be applied concurrently — every update and every structural movement is
// confined to one source vertex, and a vertex lives in exactly one shard,
// so the per-vertex exclusivity contract composes across shards. The
// Shard handle (shard.go) exposes that per-shard update/snapshot surface;
// internal/serve builds its per-shard writer pipeline on it.
type Graph struct {
	// shards partitions the vertex space into contiguous ranges described
	// by pmap: shard i owns [pmap.Starts[i], pmap.Starts[i+1]), the last
	// shard open-ended, so growth always lands in the last shard's range.
	shards []shardState
	// pmap is the current routing map (immutable, swapped whole on
	// MoveBoundary — see PartitionMap). Loads are cheap enough for hot
	// routing paths; bulk paths hoist one load per batch.
	pmap atomic.Pointer[PartitionMap]
	// n is the logical vertex-space bound: IDs are valid in [0, n). It is
	// atomic because concurrent shard writers raise it via EnsureVertices
	// while others validate batches against it.
	n atomic.Uint32

	cfg     Config
	treeCfg hitree.Config
	stats   Stats
}

// New returns an empty engine with n vertex slots, partitioned into
// cfg.Shards contiguous ranges (default 1).
func New(n uint32, cfg Config) *Graph {
	cfg.sanitize()
	g := &Graph{cfg: cfg}
	g.treeCfg = hitree.Config{
		Alpha:        cfg.Alpha,
		M:            cfg.M,
		LeafArrayMax: cfg.ArrayMax,
		DisableModel: cfg.DisableModel,
	}
	s := cfg.Shards
	pm := NewUniformMap(n, s)
	g.pmap.Store(pm)
	g.n.Store(n)
	g.shards = make([]shardState, s)
	for i := range g.shards {
		g.shards[i].base = pm.Starts[i]
		g.shards[i].idx = int32(i)
		g.shards[i].verts = make([]vertex, pm.RangeLen(i, n))
	}
	trace.EnsureShards(s)
	return g
}

// NewFromEdges builds an engine preloaded with es (directed, deduplicated
// internally) using the bulk-load path.
func NewFromEdges(n uint32, src, dst []uint32, cfg Config) *Graph {
	g := New(n, cfg)
	g.InsertBatch(src, dst)
	return g
}

// Name identifies the engine in benchmark output.
func (g *Graph) Name() string { return "LSGraph" }

// Config returns the engine's effective configuration.
func (g *Graph) Config() Config { return g.cfg }

// Stats returns the engine's counters.
func (g *Graph) Stats() *Stats { return &g.stats }

// NumVertices returns the number of vertex slots.
func (g *Graph) NumVertices() uint32 { return g.n.Load() }

// EnsureVertices grows the vertex space to at least n slots, materializing
// every shard's slice of the new range. Like updates, it must not run
// concurrently with reads or other updates (per-shard growth for the
// concurrent serving layer goes through Shard.EnsureVertices instead).
func (g *Graph) EnsureVertices(n uint32) {
	g.raiseBound(n)
	n = g.n.Load()
	pm := g.pmap.Load()
	for i := range g.shards {
		g.shards[i].ensure(pm.RangeLen(i, n))
	}
}

// ReserveVertices raises the logical vertex-space bound to at least n
// without materializing storage (an atomic max, safe to call concurrently
// with shard updates). Reads treat reserved-but-unmaterialized vertices as
// degree 0; updates must still materialize the owning shard's storage via
// Shard.EnsureVertices before touching them. The serving layer reserves at
// enqueue time so every published view's vertex count already covers every
// destination ID any in-flight batch references.
func (g *Graph) ReserveVertices(n uint32) { g.raiseBound(n) }

// raiseBound lifts the logical vertex-space bound to at least n (atomic
// max, so concurrent shard writers may race to raise it).
func (g *Graph) raiseBound(n uint32) {
	for {
		cur := g.n.Load()
		if n <= cur || g.n.CompareAndSwap(cur, n) {
			return
		}
	}
}

// locate returns the shard owning v and v's index within it. Every ID has
// an owning shard (the last shard's range is open-ended), but the local
// index may lie beyond the shard's materialized storage; read paths treat
// that as degree 0 while update paths materialize storage first.
func (g *Graph) locate(v uint32) (*shardState, uint32) {
	if len(g.shards) == 1 {
		return &g.shards[0], v
	}
	pm := g.pmap.Load()
	i := pm.ShardOf(v)
	return &g.shards[i], v - pm.Starts[i]
}

// vb returns v's vertex block, or nil when v's slot is not materialized
// (vertex-space growth that has not reached v's shard yet): such a vertex
// has no out-edges.
func (g *Graph) vb(v uint32) *vertex {
	sh, lv := g.locate(v)
	if int(lv) >= len(sh.verts) {
		return nil
	}
	return &sh.verts[lv]
}

// NumEdges returns the number of directed edges stored, summed over
// shards.
func (g *Graph) NumEdges() uint64 {
	var m uint64
	for i := range g.shards {
		m += g.shards[i].m.Load()
	}
	return m
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 {
	vb := g.vb(v)
	if vb == nil {
		return 0
	}
	return vb.deg
}

// Has reports whether the directed edge (v,u) is present.
func (g *Graph) Has(v, u uint32) bool {
	vb := g.vb(v)
	if vb == nil {
		return false
	}
	n := vb.inlineLen()
	if n > 0 && u <= vb.inline[n-1] {
		_, found := vb.inlineFind(u)
		return found
	}
	if vb.ov == nil {
		return false
	}
	return vb.ov.Has(u)
}

// ForEachNeighbor applies f to v's out-neighbors in ascending order.
func (g *Graph) ForEachNeighbor(v uint32, f func(u uint32)) {
	vb := g.vb(v)
	if vb == nil {
		return
	}
	n := vb.inlineLen()
	for i := 0; i < n; i++ {
		f(vb.inline[i])
	}
	if vb.ov != nil {
		vb.ov.Traverse(f)
	}
}

// NeighborBlocks yields v's neighbors as ascending contiguous segments
// aliasing the engine's storage — the inline prefix first, then the
// overflow structure's occupied runs (engine.NeighborBlocker). Blocks are
// valid only until yield returns and must not be mutated or retained.
func (g *Graph) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	vb := g.vb(v)
	if vb == nil {
		return
	}
	neighborBlocksVB(vb, yield)
}

// neighborBlocksVB is NeighborBlocks on a resolved vertex block.
func neighborBlocksVB(vb *vertex, yield func(block []uint32) bool) {
	n := vb.inlineLen()
	if n > 0 && !yield(vb.inline[:n:n]) {
		return
	}
	if vb.ov != nil {
		vb.ov.Blocks(yield)
	}
}

// appendNeighborsVB appends vb's neighbors in ascending order to dst.
func appendNeighborsVB(vb *vertex, dst []uint32) []uint32 {
	n := vb.inlineLen()
	dst = append(dst, vb.inline[:n]...)
	if vb.ov != nil {
		dst = vb.ov.AppendTo(dst)
	}
	return dst
}

// AppendNeighbors appends v's neighbors in ascending order to dst.
func (g *Graph) AppendNeighbors(v uint32, dst []uint32) []uint32 {
	vb := g.vb(v)
	if vb == nil {
		return dst
	}
	return appendNeighborsVB(vb, dst)
}

// insertOne adds edge (v,u) into vb (v's block), preserving the
// inline-holds-smallest invariant; it reports whether the edge was new.
// Callers must own vertex v exclusively.
func (g *Graph) insertOne(vb *vertex, u uint32) bool {
	n := vb.inlineLen()
	if n < inlineCap {
		// Everything fits inline (ov must be nil by invariant).
		i, found := vb.inlineFind(u)
		if found {
			return false
		}
		copy(vb.inline[i+1:n+1], vb.inline[i:n])
		vb.inline[i] = u
		vb.deg++
		return true
	}
	// Inline area full. If u belongs inline, evict the inline maximum.
	if u <= vb.inline[inlineCap-1] {
		i, found := vb.inlineFind(u)
		if found {
			return false
		}
		evicted := vb.inline[inlineCap-1]
		copy(vb.inline[i+1:], vb.inline[i:inlineCap-1])
		vb.inline[i] = u
		g.overflowInsert(vb, evicted)
		vb.deg++
		return true
	}
	if vb.ov == nil {
		vb.ov = g.newOverflow([]uint32{u})
		vb.deg++
		return true
	}
	if !vb.ov.Insert(u) {
		return false
	}
	vb.ov = g.maybePromote(vb.ov)
	vb.deg++
	return true
}

// overflowInsert pushes u (known absent) into vb's overflow, creating it if
// needed.
func (g *Graph) overflowInsert(vb *vertex, u uint32) {
	if vb.ov == nil {
		vb.ov = g.newOverflow([]uint32{u})
		return
	}
	vb.ov.Insert(u)
	vb.ov = g.maybePromote(vb.ov)
}

// DeleteVertex removes every edge incident to v on a symmetrized graph:
// v's own adjacency plus, for each neighbor u, the reverse edge (u,v).
// Like all updates it must not run concurrently with reads.
func (g *Graph) DeleteVertex(v uint32) {
	ns := g.AppendNeighbors(v, nil)
	if len(ns) == 0 {
		return
	}
	src := make([]uint32, 0, 2*len(ns))
	dst := make([]uint32, 0, 2*len(ns))
	for _, u := range ns {
		src = append(src, v, u)
		dst = append(dst, u, v)
	}
	g.DeleteBatch(src, dst)
}

// deleteOne removes edge (v,u) from vb (v's block); it reports whether the
// edge existed. Callers must own vertex v exclusively.
func (g *Graph) deleteOne(vb *vertex, u uint32) bool {
	n := vb.inlineLen()
	i, found := vb.inlineFind(u)
	if found {
		copy(vb.inline[i:n-1], vb.inline[i+1:n])
		if vb.ov != nil {
			// Refill the inline area from the overflow minimum.
			vb.inline[n-1] = vb.ov.DeleteMin()
			if vb.ov.Len() == 0 {
				vb.ov = nil
			}
		}
		vb.deg--
		return true
	}
	if vb.ov == nil || n == 0 || u < vb.inline[n-1] {
		return false
	}
	if !vb.ov.Delete(u) {
		return false
	}
	if vb.ov.Len() == 0 {
		vb.ov = nil
	}
	vb.deg--
	return true
}

// rebuildVertex replaces vb's storage from the full sorted neighbor set
// ns. The batch updater uses it for large per-vertex groups.
func (g *Graph) rebuildVertex(vb *vertex, ns []uint32) {
	vb.deg = uint32(len(ns))
	n := len(ns)
	if n > inlineCap {
		n = inlineCap
	}
	copy(vb.inline[:n], ns[:n])
	if len(ns) > inlineCap {
		wasHITree := false
		if _, ok := vb.ov.(*hitree.Tree); ok {
			wasHITree = true
		}
		vb.ov = g.newOverflow(ns[inlineCap:])
		if !wasHITree {
			if _, ok := vb.ov.(*hitree.Tree); ok {
				g.stats.RIAToHITree.Add(1)
				obsPromoteRIAHIT.Inc()
			}
		}
	} else {
		vb.ov = nil
	}
}

// MemoryUsage returns the engine's estimated resident bytes: the vertex
// block arrays plus every overflow structure (Table 3).
func (g *Graph) MemoryUsage() uint64 {
	const vertexBytes = 64 // one cache line per vertex block (§5)
	var total uint64
	for i := range g.shards {
		sh := &g.shards[i]
		total += uint64(len(sh.verts)) * vertexBytes
		for j := range sh.verts {
			if ov := sh.verts[j].ov; ov != nil {
				total += ov.Memory()
			}
		}
	}
	return total
}

// IndexMemory returns the bytes spent on redundant indexes and learned
// models, Table 3's index-overhead numerator.
func (g *Graph) IndexMemory() uint64 {
	var total uint64
	for i := range g.shards {
		sh := &g.shards[i]
		for j := range sh.verts {
			if ov := sh.verts[j].ov; ov != nil {
				total += ov.IndexMemory()
			}
		}
	}
	return total
}
