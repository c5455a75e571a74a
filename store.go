package lsgraph

import (
	"lsgraph/internal/serve"
)

// Store is the concurrent serving layer over one LSGraph engine: a
// sharded-writer / multi-reader wrapper that lets batch updates and
// analytics run at the same time, the capability the bare Graph's
// alternating-phase contract rules out.
//
// The vertex space is split into WithShards contiguous shards (default
// 1), each drained by its own writer goroutine. Updates are scattered by
// source vertex and enqueue into the owning shard's bounded queue; each
// writer applies its batches and publishes an immutable snapshot of its
// shard as a new shard epoch. Under backpressure a queue merges same-op
// batches instead of blocking callers. Readers pin one snapshot per
// shard with View — two atomic operations each — and run any analytics
// on the composed view while further batches apply; a retired snapshot's
// buffers are recycled once no reader pins its epoch. Vertex space grows
// automatically: an update referencing an ID beyond the current bound
// reserves it at enqueue time and the owning shard materializes storage
// before applying, so unbounded ID streams need no explicit sizing.
//
// Store itself implements Reader by delegating each call to the current
// snapshot, so the built-in kernels run directly on a live Store. Each
// such call is individually consistent, but two successive calls may see
// different epochs; pin a View when a whole kernel must observe one
// coherent graph (the kernels themselves receive one Reader value, so
// passing a View gives a fully consistent run).
type Store struct {
	st *serve.Store
}

// NewStore returns a Store over an empty graph with n vertex slots and
// starts its writer goroutines. It accepts the same options as New. The
// store's epoch 0 (the empty graph) is readable immediately. With
// WithDurability among the options, construction touches disk and may
// recover prior state; NewStore panics on any such error — durable
// callers should prefer OpenStore, which returns it instead.
func NewStore(n uint32, opts ...Option) *Store {
	st, err := OpenStore(n, opts...)
	if err != nil {
		panic("lsgraph: NewStore: " + err.Error())
	}
	return st
}

// InsertEdges enqueues a batch of edge insertions and returns immediately;
// the batch becomes visible to readers when the writer applies it and
// publishes the next epoch. Duplicates and already-present edges are
// ignored, as in Graph.InsertEdges.
func (s *Store) InsertEdges(es []Edge) {
	src, dst := split(es)
	s.st.InsertBatch(src, dst)
}

// DeleteEdges enqueues a batch of edge deletions with the same
// asynchronous contract as InsertEdges. Enqueue order is preserved, so an
// insert followed by a delete of the same edge leaves it absent.
func (s *Store) DeleteEdges(es []Edge) {
	src, dst := split(es)
	s.st.DeleteBatch(src, dst)
}

// InsertBatch is the columnar variant of InsertEdges. The slices are
// copied; the caller may reuse them immediately.
func (s *Store) InsertBatch(src, dst []uint32) { s.st.InsertBatch(src, dst) }

// DeleteBatch is the columnar variant of DeleteEdges. The slices are
// copied; the caller may reuse them immediately.
func (s *Store) DeleteBatch(src, dst []uint32) { s.st.DeleteBatch(src, dst) }

// Flush blocks until every update enqueued before the call has been
// applied and published.
func (s *Store) Flush() {
	s.st.Flush()
}

// Close applies and publishes any remaining queued batches, then stops
// the writer goroutine and waits for it to exit. Updates after Close
// panic; Views acquired before Close remain readable.
func (s *Store) Close() {
	s.st.Close()
}

// View pins the most recently published snapshot and returns it. Views
// are always available — acquiring never waits for the writer, even
// mid-batch — and stay immutable while the store keeps ingesting. Release
// every view when done; an unreleased view pins its snapshot's memory.
func (s *Store) View() *StoreView {
	return &StoreView{v: s.st.View()}
}

// Epoch returns the store's current epoch: the total number of shard
// snapshot publishes since construction. Each shard writer publishes once
// per drained queue slice (and at every Flush or rebalance point), so one
// epoch step can expose several update batches.
func (s *Store) Epoch() uint64 { return s.st.Epoch() }

// Shards returns the number of shard writer pipelines (1 unless the
// store was built with WithShards).
func (s *Store) Shards() int { return s.st.Shards() }

// NumVertices returns the vertex count of the current snapshot.
func (s *Store) NumVertices() uint32 { return s.st.NumVertices() }

// NumEdges returns the directed edge count of the current snapshot.
func (s *Store) NumEdges() uint64 { return s.st.NumEdges() }

// Degree returns v's out-degree in the current snapshot.
func (s *Store) Degree(v uint32) uint32 { return s.st.Degree(v) }

// ForEachNeighbor applies f to v's out-neighbors in ascending order on
// the snapshot current at call time; the snapshot stays pinned for the
// whole iteration, concurrently with ongoing ingestion.
func (s *Store) ForEachNeighbor(v uint32, f func(u uint32)) {
	s.st.ForEachNeighbor(v, f)
}

// NeighborBlocks yields v's adjacency as one contiguous slice out of the
// owning shard's snapshot current at call time (see BlockReader). The
// snapshot stays pinned only for the duration of the call; the block must
// not be retained past yield.
func (s *Store) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	s.st.NeighborBlocks(v, yield)
}

// QueueDepth returns the number of update batches currently queued across
// all shard writer queues (including Flush sentinels): the store's
// backpressure signal in batches. Lock-free and safe from any goroutine;
// the value may change before the caller acts on it.
func (s *Store) QueueDepth() int { return s.st.QueueDepth() }

// MaxQueue returns the per-shard queue bound this store was built with
// (WithMaxQueue; default 64). Constant for the store's lifetime.
func (s *Store) MaxQueue() int { return s.st.MaxQueue() }

// Saturated reports whether any shard's update queue has reached the
// MaxQueue bound, the point where further same-op updates coalesce into
// already-queued batches instead of queueing independently. Front-ends use
// it as the admission-control shed signal (respond 429 instead of
// enqueueing). Safe from any goroutine; it briefly takes each shard's
// queue lock, so call it per request, not per edge.
func (s *Store) Saturated() bool { return s.st.Saturated() }

// StoreStats is a point-in-time copy of a Store's always-on counters; see
// the field docs in internal/serve. The same signals are exported through
// the metrics registry (lsgraph_store_* series) when collection is on.
type StoreStats = serve.Stats

// Stats returns a copy of the store's counters: batches applied, edges
// enqueued, coalesced batches, snapshots published/reclaimed/reused, and
// rebalance activity.
func (s *Store) Stats() StoreStats { return s.st.Stats() }

// RebalanceResult summarizes one Store.Rebalance call; see the field docs
// in internal/serve.
type RebalanceResult = serve.RebalanceResult

// PartitionInfo is a point-in-time description of a Store's partition
// map and per-shard load; see the field docs in internal/serve.
type PartitionInfo = serve.PartitionInfo

// Rebalance re-partitions the vertex space toward equal per-shard edge
// mass, moving contiguous vertex ranges between adjacent shards. Reads
// and writers for unaffected shards proceed throughout; each boundary
// move quiesces only the two shard writers it touches. Views pinned
// before the call keep reading their pre-rebalance state until released.
// On a single-shard store it returns an empty result. Concurrent calls
// serialize; each sees the previous call's layout.
func (s *Store) Rebalance() (RebalanceResult, error) { return s.st.Rebalance() }

// Partition returns the store's current partition map and per-shard load:
// map epoch, range starts, stored edge mass, routed-edge counters, and
// the skew gauge the auto-rebalancer watches.
func (s *Store) Partition() PartitionInfo { return s.st.Partition() }

// StoreView is an epoch-pinned, immutable view of a Store: one pinned
// snapshot per shard, composed behind the Reader interface. It implements
// Reader, so every built-in kernel (BFS, PageRank, ConnectedComponents,
// TriangleCount, KCore, BC) and the EdgeMap primitive run on it while the
// store keeps ingesting. A view is consistent per shard: all edges of one
// source vertex appear atomically and never change while pinned. With
// more than one shard there is no single global cut — two edges routed to
// different shards may become visible in either order across views.
type StoreView struct {
	v *serve.View
}

// Epoch returns the epoch this view pinned: 0 for the store's initial
// empty graph, incremented by one per shard publish — one per drained
// group of batches, with Flush and rebalance entries as publish points.
// Valid after Release.
func (v *StoreView) Epoch() uint64 { return v.v.Epoch() }

// Release unpins the view, allowing its snapshot's buffers to be
// recycled. The view must not be read afterwards. Releasing twice is a
// no-op.
func (v *StoreView) Release() { v.v.Release() }

// NumVertices returns the view's vertex count.
func (v *StoreView) NumVertices() uint32 { return v.v.NumVertices() }

// NumEdges returns the view's directed edge count.
func (v *StoreView) NumEdges() uint64 { return v.v.NumEdges() }

// Degree returns u's out-degree at the view's epoch.
func (v *StoreView) Degree(u uint32) uint32 { return v.v.Degree(u) }

// Neighbors returns u's out-neighbors in ascending order as a new slice.
func (v *StoreView) Neighbors(u uint32) []uint32 {
	out := make([]uint32, 0, v.v.Degree(u))
	v.v.ForEachNeighbor(u, func(w uint32) { out = append(out, w) })
	return out
}

// ForEachNeighbor applies f to u's out-neighbors in ascending ID order.
func (v *StoreView) ForEachNeighbor(u uint32, f func(w uint32)) {
	v.v.ForEachNeighbor(u, f)
}

// NeighborBlocks yields u's adjacency as one contiguous slice aliasing the
// view's pinned snapshot (see BlockReader). Unlike Neighbors, the block is
// not a copy: it must not be mutated or used after Release.
func (v *StoreView) NeighborBlocks(u uint32, yield func(block []uint32) bool) {
	v.v.NeighborBlocks(u, yield)
}
