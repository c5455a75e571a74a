package core

import (
	"sync/atomic"

	"lsgraph/internal/batch"
	"lsgraph/internal/parallel"
)

// shardState is one contiguous vertex-range partition of a Graph: the
// range's vertex blocks plus everything one concurrent update pipeline
// needs privately — an edge counter and the prepare/apply scratch arenas.
// Two shardStates share no mutable memory, which is what lets
// internal/serve drive one writer goroutine per shard without locks: the
// one-vertex-one-worker invariant of §5 holds across shards because a
// vertex lives in exactly one of them.
type shardState struct {
	base  uint32
	idx   int32 // position in Graph.shards, for flight-recorder attribution
	verts []vertex
	m     atomic.Uint64
	prep  batch.Scratch
	order []uint64 // apply schedule keys, size<<32 | group index
	apply []applyScratch

	// last is the shard's most recent snapshot and dirty a bitmap (bit i
	// for slot i, covering last's slots) of the vertices whose adjacency
	// changed since it was taken: the copy source and change set that make
	// the next publish incremental (see snapshotShardInto). The update
	// pipeline marks each batch's source vertices after its apply loop;
	// MoveBoundary drops last, since the splice renumbers slots.
	last  *Snapshot
	dirty []uint64

	// traceBatch is the flight-recorder batch ID the shard's current update
	// is attributed to (see internal/trace). It is owned by whichever
	// goroutine owns the shard's update pipeline — the serve shard writer
	// sets it via Shard.BeginTrace before applying — so a plain field
	// suffices under the per-shard exclusivity contract.
	traceBatch uint64
}

// ensure grows the shard's materialized storage to at least n slots.
func (sh *shardState) ensure(n int) {
	if n <= len(sh.verts) {
		return
	}
	nv := make([]vertex, n)
	copy(nv, sh.verts)
	sh.verts = nv
}

// markDirty records that the groups' source vertices changed since the
// shard's last snapshot. Slots beyond the bitmap lie past last's vertex
// count and are re-materialized by the next snapshot regardless.
func (sh *shardState) markDirty(groups []batch.Group) {
	for _, gr := range groups {
		if i := gr.V - sh.base; int(i>>6) < len(sh.dirty) {
			sh.dirty[i>>6] |= 1 << (i & 63)
		}
	}
}

// NumShards returns the number of vertex-range partitions (Config.Shards).
func (g *Graph) NumShards() int { return len(g.shards) }

// ShardOf returns the index of the shard owning vertex v under the
// current partition map. The last shard's range is open-ended, so IDs
// beyond the initial vertex space still belong to the last shard.
func (g *Graph) ShardOf(v uint32) int {
	return g.pmap.Load().ShardOf(v)
}

// shardWorkers returns the per-shard update parallelism: the graph's
// worker budget split evenly across shards, at least one. Shard pipelines
// run concurrently, so giving each the full budget would oversubscribe.
func (g *Graph) shardWorkers() int {
	p := g.workers() / len(g.shards)
	if p < 1 {
		p = 1
	}
	return p
}

// Shard is a handle on one vertex-range partition, exposing the per-shard
// update/snapshot surface that internal/serve builds its shard writers on.
// Methods that mutate (EnsureVertices, Apply, SnapshotInto) must be
// serialized per shard — one owner goroutine per shard — but different
// shards' owners may run them concurrently.
type Shard struct {
	g  *Graph
	sh *shardState
}

// Shard returns the handle for shard i (0 <= i < NumShards).
func (g *Graph) Shard(i int) Shard { return Shard{g: g, sh: &g.shards[i]} }

// Base returns the first vertex ID of the shard's range.
func (s Shard) Base() uint32 { return s.sh.base }

// BeginTrace attributes the shard's subsequent updates to the given
// flight-recorder batch ID (internal/trace): the prepare and apply phase
// spans the pipeline records will carry it. Callers must own the shard
// exclusively, like every mutating method.
func (s Shard) BeginTrace(batch uint64) { s.sh.traceBatch = batch }

// NumVertices returns the shard's materialized slot count; the shard owns
// global IDs [Base, Base+NumVertices) plus, for the last shard, any
// not-yet-materialized tail of the logical vertex space.
func (s Shard) NumVertices() uint32 { return uint32(len(s.sh.verts)) }

// NumEdges returns the number of directed edges stored in the shard.
func (s Shard) NumEdges() uint64 { return s.sh.m.Load() }

// EnsureVertices raises the graph's logical vertex bound to at least n
// (atomic max, safe against other shards doing the same) and materializes
// this shard's storage for its slice of the new range. The serving layer
// calls it before every apply so batches may reference vertices beyond
// the initial space.
func (s Shard) EnsureVertices(n uint32) {
	g := s.g
	g.raiseBound(n)
	n = g.n.Load()
	s.sh.ensure(g.pmap.Load().RangeLen(int(s.sh.idx), n))
}

// Apply inserts or deletes (per op) the directed edges (src[i] ->
// dst[i]), all of whose sources must belong to this shard (route with
// ScatterBatch). Inserting a present edge and deleting an absent one are
// no-ops.
func (s Shard) Apply(op Op, src, dst []uint32) {
	o := &ops[op]
	validateBatch(o.name, src, dst)
	s.g.applyBatchShard(s.sh, o, src, dst, s.g.shardWorkers())
}

// SnapshotInto flattens the shard into a local CSR view — offsets indexed
// by local slot, adjacency holding global IDs — reusing snap's buffers
// when capacity allows (see Graph.SnapshotInto for the reuse contract).
// The cost tracks what changed rather than the shard's size: runs of
// vertices unchanged since the shard's previous snapshot are copied from
// it, and only the vertices updated since are re-materialized from their
// vertex blocks. The first call, the first after a MoveBoundary splice,
// and a call whose snap is the previous snapshot itself make a full pass.
// The call must be serialized with this shard's updates only; other
// shards may keep updating concurrently.
func (s Shard) SnapshotInto(snap *Snapshot) *Snapshot {
	return s.g.snapshotShardInto(s.sh, snap, s.g.shardWorkers())
}

// SubBatch is one shard's routed slice of a mixed batch; indexes align
// with the shard order of ScatterBatch's result.
type SubBatch struct {
	Src, Dst []uint32
}

// ScatterBatch routes a mixed batch to shards by source vertex: parts[i]
// holds exactly the edges whose source ShardOf maps to shard i, in their
// original relative order. bound is 1 + the largest vertex ID referenced
// by either endpoint (0 for an empty batch) — the vertex-space size the
// batch requires, which the serving layer feeds to Shard.EnsureVertices.
// The returned sub-batches are freshly allocated and do not alias
// src/dst, so callers may retain them after the input buffers are reused.
// Parts share one backing array, but each part's capacity is pinned to its
// length, so appending to a retained part reallocates rather than writing
// into a sibling part.
// ScatterBatch does not validate IDs against the current vertex space.
func (g *Graph) ScatterBatch(src, dst []uint32) (parts []SubBatch, bound uint32) {
	return g.ScatterBatchWith(g.pmap.Load(), src, dst)
}

// ScatterBatchWith is ScatterBatch routing by an explicit partition map
// instead of the graph's current one. The serving layer uses it to pin a
// whole batch's routing to the map that was current when the batch
// entered the queue, so a concurrent boundary move cannot split one
// batch's routing across two maps.
func (g *Graph) ScatterBatchWith(pm *PartitionMap, src, dst []uint32) (parts []SubBatch, bound uint32) {
	validateBatch("ScatterBatch", src, dst)
	S := len(g.shards)
	parts = make([]SubBatch, S)
	n := len(src)
	if n == 0 {
		return parts, 0
	}
	p := g.workers()
	if n < batch.ParallelMin || p <= 1 {
		return g.scatterSeq(pm, src, dst, parts)
	}

	// Pass 1: per-worker, per-shard counts over static ranges (cuts must
	// be deterministic across passes, so no dynamic chunk claiming here).
	counts := make([]int, p*S)
	maxes := make([]uint32, p)
	parallel.ForBlockedW(p, p, func(_, w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*S : w*S+S]
		max := uint32(0)
		for i := lo; i < hi; i++ {
			s, d := src[i], dst[i]
			c[pm.ShardOf(s)]++
			if s > max {
				max = s
			}
			if d > max {
				max = d
			}
		}
		maxes[w] = max
	})

	// Exclusive prefix sums, shard-major then worker: worker w's output
	// for shard s starts where worker w-1's ends, preserving input order.
	total := 0
	sizes := make([]int, S)
	for s := 0; s < S; s++ {
		for w := 0; w < p; w++ {
			c := counts[w*S+s]
			counts[w*S+s] = total
			total += c
			sizes[s] += c
		}
	}
	srcOut := make([]uint32, n)
	dstOut := make([]uint32, n)

	// Pass 2: write each edge at its final offset.
	parallel.ForBlockedW(p, p, func(_, w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*S : w*S+S]
		for i := lo; i < hi; i++ {
			s := src[i]
			sh := pm.ShardOf(s)
			j := c[sh]
			c[sh] = j + 1
			srcOut[j] = s
			dstOut[j] = dst[i]
		}
	})

	off := 0
	for s := 0; s < S; s++ {
		// Full slice expressions pin each part's capacity: a retained part
		// that is appended to (serve's backpressure merge) reallocates
		// instead of overwriting the next shard's slice of the backing array.
		end := off + sizes[s]
		parts[s] = SubBatch{Src: srcOut[off:end:end], Dst: dstOut[off:end:end]}
		off = end
	}
	for _, m := range maxes {
		if m+1 > bound {
			bound = m + 1
		}
	}
	return parts, bound
}

// scatterSeq is the one-worker scatter for small batches.
func (g *Graph) scatterSeq(pm *PartitionMap, src, dst []uint32, parts []SubBatch) ([]SubBatch, uint32) {
	S := len(g.shards)
	sizes := make([]int, S)
	max := uint32(0)
	for i, s := range src {
		sizes[pm.ShardOf(s)]++
		if s > max {
			max = s
		}
		if d := dst[i]; d > max {
			max = d
		}
	}
	srcOut := make([]uint32, len(src))
	dstOut := make([]uint32, len(src))
	off := 0
	offs := make([]int, S)
	for s := 0; s < S; s++ {
		offs[s] = off
		off += sizes[s]
	}
	for i, s := range src {
		sh := pm.ShardOf(s)
		j := offs[sh]
		offs[sh] = j + 1
		srcOut[j] = s
		dstOut[j] = dst[i]
	}
	off = 0
	for s := 0; s < S; s++ {
		end := off + sizes[s]
		parts[s] = SubBatch{Src: srcOut[off:end:end], Dst: dstOut[off:end:end]}
		off = end
	}
	return parts, max + 1
}
