// Package engine defines the interface every streaming graph engine in this
// repository implements — LSGraph itself and the baselines (Terrace,
// Aspen, PaC-tree, Sortledton). The analytics kernels and the benchmark
// harness are written against this interface so every system runs identical code
// above the storage layer, mirroring how the paper layers Ligra-style
// primitives over each system.
package engine

// Graph is the analytics-facing read interface. Neighbor iteration must
// visit neighbors in ascending vertex-ID order: the paper's analytics
// (notably triangle counting's set intersections) rely on ordered neighbors.
type Graph interface {
	// NumVertices returns the number of vertex slots (IDs are dense
	// [0, NumVertices)).
	NumVertices() uint32
	// NumEdges returns the number of directed edges currently stored.
	NumEdges() uint64
	// Degree returns the out-degree of v.
	Degree(v uint32) uint32
	// ForEachNeighbor applies f to each out-neighbor of v in ascending
	// order. It must be safe to call concurrently from multiple goroutines
	// for distinct or identical v as long as no update is in flight.
	ForEachNeighbor(v uint32, f func(u uint32))
}

// Update is the mutation interface. Batches may contain duplicates and
// edges already present (for insert) or absent (for delete); engines must
// tolerate both, applying set semantics.
type Update interface {
	// InsertBatch adds the directed edges (src[i] -> dst[i]).
	InsertBatch(src, dst []uint32)
	// DeleteBatch removes the directed edges.
	DeleteBatch(src, dst []uint32)
}

// Engine is a complete streaming graph system. Every engine offers the
// block read path natively, so the kernels never copy adjacency out of an
// in-repo engine to iterate it.
type Engine interface {
	Graph
	NeighborBlocker
	Update
	// MemoryUsage returns the engine's estimated resident bytes for graph
	// storage (Table 3).
	MemoryUsage() uint64
	// Name identifies the engine in benchmark output.
	Name() string
}

// NeighborBlocker is the block-granular read path every Engine implements:
// LSGraph's inline prefix and RIA/LIA blocks, Terrace's inline prefix,
// B-tree nodes and decoded PMA chunks, Aspen's tree chunks, PaC-tree
// leaves, Sortledton's vector or skip-list blocks, and CSR snapshots. The
// kernels reach it through a BlockCursor, which also serves a plain Graph
// that lacks it.
type NeighborBlocker interface {
	// NeighborBlocks yields v's adjacency as a sequence of non-empty,
	// ascending []uint32 segments whose concatenation equals the
	// ForEachNeighbor order. Blocks alias the engine's backing storage or
	// scratch: they are valid only until yield returns and must not be
	// mutated or retained. Returning false from yield stops the
	// iteration. The same concurrency contract as ForEachNeighbor applies.
	NeighborBlocks(v uint32, yield func(block []uint32) bool)
}

// BlockCursor is the one edge-iteration path of the analytics kernels. It
// binds a graph's block strategy once, so per-vertex iteration is a single
// dynamic call: a NeighborBlocker is walked natively, and any other Graph
// (a callback-only Reader supplied from outside the repository) has each
// vertex's neighbors gathered into a reused scratch buffer and yielded as
// one block. Each worker goroutine must own its own cursor, since the
// scratch buffer is not safe to share.
type BlockCursor struct {
	nb NeighborBlocker
}

// NewBlockCursor returns a cursor over g.
func NewBlockCursor(g Graph) BlockCursor {
	if bg, ok := g.(NeighborBlocker); ok {
		return BlockCursor{nb: bg}
	}
	return BlockCursor{nb: &gatherer{g: g}}
}

// NewBlockCursors returns n cursors over g, one per worker index of a
// parallel loop (parallel.ForChunkW), so each worker reuses its own
// fallback scratch for the whole run.
func NewBlockCursors(g Graph, n int) []BlockCursor {
	cs := make([]BlockCursor, n)
	for i := range cs {
		cs[i] = NewBlockCursor(g)
	}
	return cs
}

// Blocks yields v's neighbors as ascending contiguous segments, under the
// same aliasing and termination contract as NeighborBlocks.
func (c BlockCursor) Blocks(v uint32, yield func(block []uint32) bool) {
	c.nb.NeighborBlocks(v, yield)
}

// gatherer is BlockCursor's fallback for a Graph without NeighborBlocks.
type gatherer struct {
	g   Graph
	buf []uint32 // scratch, reused across vertices
}

// NeighborBlocks collects v's neighbors through ForEachNeighbor into the
// scratch buffer and yields them as one block.
func (c *gatherer) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	buf := c.buf[:0]
	c.g.ForEachNeighbor(v, func(u uint32) { buf = append(buf, u) })
	if c.buf = buf; len(buf) > 0 {
		yield(buf)
	}
}

// Neighbors collects v's neighbors into a fresh slice through
// ForEachNeighbor. It is a convenience for tests and checkers.
func Neighbors(g Graph, v uint32) []uint32 {
	out := make([]uint32, 0, g.Degree(v))
	g.ForEachNeighbor(v, func(u uint32) { out = append(out, u) })
	return out
}
