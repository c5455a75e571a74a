package core

import (
	"context"
	"fmt"
	rtrace "runtime/trace"
	"sync/atomic"

	"lsgraph/internal/batch"
	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
	"lsgraph/internal/trace"
)

// Op is a batch update operation. Its values equal the WAL's record ops
// (wal.OpInsert, wal.OpDelete), so a logged record replays as the op it
// was queued with.
type Op uint8

// Batch update operations.
const (
	OpInsert Op = iota
	OpDelete
)

// bulkMin is the smallest group any op applies by merge-and-rebuild;
// smaller groups always take the per-edge path regardless of degree.
const bulkMin = 32

// opSpec is one row of the op table: everything the shared update
// pipeline needs to know about an operation. applyBatchShard looks the row
// up once per batch and picks the apply path once per group; the per-edge
// loops call insertOne/deleteOne directly.
type opSpec struct {
	name   string // the Graph method, for panic messages
	region string // runtime/trace region

	// each applies a group edge by edge (Algorithm 2), returning the
	// number of edges it changed.
	each func(g *Graph, vb *vertex, ks []uint64) uint64
	// A group of at least bulkMin edges and at least 1/bulkDiv of the
	// vertex's degree is applied by rebuilding the vertex from
	// bulk(old neighbors, group), O(deg + group) sequential work, instead
	// of O(group) searches plus bounded movement.
	bulkDiv int
	bulk    func(dst, old []uint32, ks []uint64) []uint32
	// sign multiplies the changed-edge count into the shard's edge
	// counter: 1, or -1 in two's complement (atomic.Uint64 has no Sub).
	sign uint64

	batches, updates, changed *obs.Counter
}

// ops is the op table, indexed by Op. Inserts rebuild once the group is
// about a quarter of the degree, deletes once it removes half of it.
var ops = [...]opSpec{
	OpInsert: {
		name: "InsertBatch", region: "lsgraph.InsertBatch",
		each: (*Graph).insertEach, bulkDiv: 4, bulk: batch.Merge, sign: 1,
		batches: obsBatchesIns, updates: obsUpdatesIns, changed: obsEdgesAdded,
	},
	OpDelete: {
		name: "DeleteBatch", region: "lsgraph.DeleteBatch",
		each: (*Graph).deleteEach, bulkDiv: 2, bulk: batch.Subtract, sign: ^uint64(0),
		batches: obsBatchesDel, updates: obsUpdatesDel, changed: obsEdgesRemoved,
	},
}

// useBulk reports whether a group of groupLen edges on a vertex of degree
// deg takes the merge-and-rebuild path.
func (o *opSpec) useBulk(groupLen int, deg uint32) bool {
	return groupLen >= bulkMin && o.bulkDiv*groupLen >= int(deg)
}

// applyScratch is one worker's reusable buffers for the bulk
// merge-and-rebuild path. The padding keeps adjacent workers' slice
// headers on separate cache lines, since workers store grown slices back
// concurrently.
type applyScratch struct {
	old []uint32 // current neighbor set of the vertex being rebuilt
	out []uint32 // merged (insert) or kept (delete) neighbor set
	_   [128 - 2*24]byte
}

// workers returns the effective update parallelism for this graph.
func (g *Graph) workers() int {
	if g.cfg.Workers > 0 {
		return g.cfg.Workers
	}
	return parallel.Procs
}

// ensureApplyScratch sizes the shard's per-worker arenas for an apply
// phase with p workers.
func (sh *shardState) ensureApplyScratch(p int) {
	if len(sh.apply) < p {
		sh.apply = make([]applyScratch, p)
	}
}

// validateBatch panics with a clear message when src and dst disagree in
// length, instead of an index-out-of-range deep inside prepareBatch.
func validateBatch(op string, src, dst []uint32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("core: %s: src/dst length mismatch (%d vs %d); every edge needs both endpoints",
			op, len(src), len(dst)))
	}
}

// prepareBatch packs, sorts, deduplicates, and groups a batch by source
// vertex (§5 "Batch Updates") inside one shard's scratch arena, timing and
// tracing each step of the shared internal/batch pipeline.
func (g *Graph) prepareBatch(sh *shardState, src, dst []uint32, p int) ([]uint64, []batch.Group) {
	if obs.Enabled() {
		obsPrepWorkers.Set(int64(p))
	}
	shard, b, edges := int(sh.idx), sh.traceBatch, uint64(len(src))
	trPrep := trace.Start()

	tPack := obs.StartTimer()
	trPack := trace.Start()
	ks := sh.prep.Pack(src, dst, g.n.Load(), p)
	obsPhasePack.ObserveSince(tPack)
	trace.Span(trace.PhasePack, shard, b, 0, edges, trPack)

	tSort := obs.StartTimer()
	trSort := trace.Start()
	parallel.SortUint64(ks, p)
	obsPhaseSort.ObserveSince(tSort)
	trace.Span(trace.PhaseSort, shard, b, 0, edges, trSort)

	tGroup := obs.StartTimer()
	trGroup := trace.Start()
	keys, groups := sh.prep.Group(ks, p, obsGroupSize)
	obsPhaseGroup.ObserveSince(tGroup)
	trace.Span(trace.PhaseGroup, shard, b, 0, edges, trGroup)

	trace.Span(trace.PhasePrepare, shard, b, 0, edges, trPrep)
	return keys, groups
}

// forEachGroupBySize applies f to every group exactly once, with p
// workers in the shard's apply arena. Scheduling is skew-aware: groups are
// ordered largest-first and workers claim them dynamically, so a hub
// vertex's huge group starts immediately instead of serializing whichever
// worker a static round-robin happened to assign it to, with the rest of
// the batch back-filling the other workers. Each group — and therefore
// each source vertex, since prepareBatch emits one group per vertex — is
// applied by exactly one worker, preserving the lock-free
// one-vertex-one-worker invariant the paper's update path relies on (§5).
func forEachGroupBySize(sh *shardState, groups []batch.Group, p int, f func(w, gi int)) {
	n := len(groups)
	if n == 0 {
		return
	}
	sh.ensureApplyScratch(p)
	if p <= 1 {
		// One worker applies in vertex order; sorting the schedule would be
		// pure overhead.
		parallel.ForDynamicW(n, 1, f)
		return
	}
	order := growU64(sh.order, n)
	for i := range groups {
		order[i] = uint64(groups[i].Hi-groups[i].Lo)<<32 | uint64(i)
	}
	parallel.SortUint64(order, p)
	sh.order = order
	parallel.ForDynamicW(n, p, func(w, i int) {
		f(w, int(uint32(order[n-1-i])))
	})
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// InsertBatch adds the directed edges (src[i] -> dst[i]). Duplicate and
// already-present edges are ignored. The batch is applied in parallel, one
// vertex's group per worker, largest groups first; with Shards > 1 it is
// first scattered by source vertex and the shards run their pipelines
// concurrently.
func (g *Graph) InsertBatch(src, dst []uint32) { g.applyBatch(OpInsert, src, dst) }

// DeleteBatch removes the directed edges (src[i] -> dst[i]). Absent edges
// are ignored.
func (g *Graph) DeleteBatch(src, dst []uint32) { g.applyBatch(OpDelete, src, dst) }

// applyBatch runs op over a whole-graph batch: directly on a single shard,
// or scattered by source vertex with the shards' pipelines in parallel.
// Out-of-range endpoints of a scattered batch are detected up front on the
// caller's goroutine (per-shard packing would panic inside a worker
// goroutine, where the caller could not recover it).
func (g *Graph) applyBatch(op Op, src, dst []uint32) {
	o := &ops[op]
	validateBatch(o.name, src, dst)
	if len(src) == 0 {
		return
	}
	defer rtrace.StartRegion(context.Background(), o.region).End()
	defer g.runDebugValidate()
	g.beginBatchTrace()
	if len(g.shards) == 1 {
		g.applyBatchShard(&g.shards[0], o, src, dst, g.workers())
		return
	}
	parts, bound := g.ScatterBatch(src, dst)
	if n := g.n.Load(); bound > n {
		batch.CheckBounds(src, dst, n)
	}
	p := g.shardWorkers()
	var thunks []func()
	for i := range parts {
		if len(parts[i].Src) == 0 {
			continue
		}
		sh, part := &g.shards[i], parts[i]
		thunks = append(thunks, func() { g.applyBatchShard(sh, o, part.Src, part.Dst, p) })
	}
	parallel.Run(thunks...)
}

// beginBatchTrace stamps every shard with a fresh flight-recorder batch ID
// so phase spans from one direct-engine InsertBatch/DeleteBatch share an
// attribution. Direct batch calls own the whole graph, so plain stores are
// safe; the serving layer instead attributes per shard via Shard.BeginTrace.
func (g *Graph) beginBatchTrace() {
	if !trace.Enabled() {
		return
	}
	b := trace.NextBatchID()
	for i := range g.shards {
		g.shards[i].traceBatch = b
	}
}

// applyBatchShard runs the full prepare+apply pipeline of op for one
// shard's routed sub-batch with p workers. Callers must own the shard
// exclusively.
func (g *Graph) applyBatchShard(sh *shardState, o *opSpec, src, dst []uint32, p int) {
	if len(src) == 0 {
		return
	}
	ks, groups := g.prepareBatch(sh, src, dst, p)
	on := obs.Enabled()
	tApply := obs.StartTimer()
	trApply := trace.Start()
	var changed atomic.Uint64
	base := sh.base
	forEachGroupBySize(sh, groups, p, func(w, gi int) {
		gr := groups[gi]
		vb := &sh.verts[gr.V-base]
		gks := ks[gr.Lo:gr.Hi]
		var n uint64
		if o.useBulk(len(gks), vb.deg) {
			if on {
				obsGroupsBulk.AddShard(w, 1)
			}
			n = g.rebuildGroup(sh, w, vb, gks, o.bulk)
		} else {
			if on {
				obsGroupsEdge.AddShard(w, 1)
			}
			n = o.each(g, vb, gks)
		}
		if n != 0 {
			changed.Add(n)
		}
	})
	n := changed.Load()
	sh.m.Add(n * o.sign)
	sh.markDirty(groups)
	obsPhaseApply.ObserveSince(tApply)
	trace.Span(trace.PhaseApply, int(sh.idx), sh.traceBatch, 0, uint64(len(src)), trApply)
	if on {
		o.batches.Inc()
		o.updates.Add(uint64(len(src)))
		o.changed.Add(n)
	}
}

// insertEach inserts a group's edges one at a time, returning the number
// of new edges.
func (g *Graph) insertEach(vb *vertex, ks []uint64) uint64 {
	n := uint64(0)
	for _, k := range ks {
		if g.insertOne(vb, uint32(k)) {
			n++
		}
	}
	return n
}

// deleteEach deletes a group's edges one at a time, returning the number
// of removed edges.
func (g *Graph) deleteEach(vb *vertex, ks []uint64) uint64 {
	n := uint64(0)
	for _, k := range ks {
		if g.deleteOne(vb, uint32(k)) {
			n++
		}
	}
	return n
}

// rebuildGroup applies a sorted update group to a vertex in one pass —
// kernel (batch.Merge or batch.Subtract) combines its existing neighbors
// with the group and the vertex's storage is rebuilt from the result —
// returning the number of edges added or removed. This is the
// large-batch fast path that lets throughput keep climbing with batch
// size (Figure 12). The kernel runs in worker w's scratch arena; every
// overflow builder copies its input, so the arena is safe to reuse for
// the worker's next group.
func (g *Graph) rebuildGroup(sh *shardState, w int, vb *vertex, ks []uint64,
	kernel func(dst, old []uint32, ks []uint64) []uint32) uint64 {
	sc := &sh.apply[w]
	old := appendNeighborsVB(vb, sc.old[:0])
	out := kernel(sc.out, old, ks)
	if obs.Enabled() {
		// An arena that had to grow changed capacity.
		if cap(old) == cap(sc.old) && cap(out) == cap(sc.out) {
			obsScratchHit.AddShard(w, 1)
		} else {
			obsScratchMiss.AddShard(w, 1)
		}
	}
	g.rebuildVertex(vb, out)
	sc.old, sc.out = old, out // retain grown capacity for the next group
	if len(out) < len(old) {
		return uint64(len(old) - len(out))
	}
	return uint64(len(out) - len(old))
}
