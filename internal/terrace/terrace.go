// Package terrace re-implements the design of Terrace (Pandey et al.,
// SIGMOD '21), the hierarchical baseline of the paper's evaluation: per-
// vertex cache-line vertex blocks for the smallest neighbors, one shared
// packed memory array for medium-degree overflow, and a per-vertex B-tree
// for high-degree overflow.
//
// The shared PMA is what the paper's §2.3 analysis targets: inserts binary-
// search a single huge gapped array and shuffle data across vertex
// boundaries, so large batches pay massive data movement and concurrent
// workers contend on overlapping windows. This implementation keeps both
// properties (the PMA is sharded only by vertex range, with one lock per
// shard) so Figures 3, 4, 12 and 17 reproduce.
package terrace

import (
	"sync"
	"sync/atomic"
	"time"

	"lsgraph/internal/btree"
	"lsgraph/internal/parallel"
	"lsgraph/internal/pma"
)

// inlineCap matches LSGraph's vertex-block capacity so the comparison
// isolates the overflow structures.
const inlineCap = 13

// HighDegree is the degree above which a vertex's overflow moves from the
// shared PMA to its own B-tree (Terrace's medium/high split).
const HighDegree = 1024

// numShards is the number of vertex-range shards of the medium PMA. Real
// Terrace has exactly one PMA; a small shard count keeps its behavior (big
// windows, contention) while letting multi-worker tests finish.
const numShards = 16

// Stats aggregates instrumentation for the motivation experiments.
type Stats struct {
	// PMANanos is cumulative wall time spent inside PMA operations during
	// updates (Figure 4a's numerator). Only meaningful for single-worker
	// runs, which is how the paper measures it.
	PMANanos atomic.Int64
	// UpdateNanos is cumulative wall time of whole update calls.
	UpdateNanos atomic.Int64
}

// PMAStats returns the summed instrumentation of all PMA shards.
func (g *Graph) PMAStats() pma.Stats {
	var s pma.Stats
	for i := range g.shards {
		st := g.shards[i].p.Stats
		s.SearchProbes += st.SearchProbes
		s.Moved += st.Moved
		s.Redistributions += st.Redistributions
		s.Grows += st.Grows
	}
	return s
}

type vertex struct {
	deg    uint32
	inline [inlineCap]uint32
	tree   *btree.Tree // non-nil only above HighDegree
}

type shard struct {
	mu sync.Mutex
	p  *pma.PMA[uint64]
	// offs caches, per source vertex in this shard's range, the backing-
	// array index of its first edge — the analogue of Terrace's offset
	// array over the PMA. nil means stale; it is rebuilt lazily on first
	// traversal after a mutation. Analytics phases don't mutate, so one
	// build serves the whole phase, and readers only pay an atomic load.
	offs atomic.Pointer[map[uint32]int32]
}

// invalidate drops the shard's offset cache; callers hold sh.mu.
func (sh *shard) invalidate() { sh.offs.Store(nil) }

// offsets returns the shard's offset cache, rebuilding it under the shard
// lock if stale.
func (sh *shard) offsets() map[uint32]int32 {
	if m := sh.offs.Load(); m != nil {
		return *m
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m := sh.offs.Load(); m != nil {
		return *m
	}
	offs := make(map[uint32]int32)
	prev := uint32(0xffffffff)
	sh.p.IterateFrom(0, func(pos int, k uint64) bool {
		if v := uint32(k >> 32); v != prev {
			offs[v] = int32(pos)
			prev = v
		}
		return true
	})
	sh.offs.Store(&offs)
	return offs
}

// Graph is the Terrace-style engine.
type Graph struct {
	verts   []vertex
	shards  []shard
	m       atomic.Uint64
	workers int
	// Instrument enables the per-call timers of Stats.
	Instrument bool
	Stats      Stats
}

// New returns an empty Terrace engine with n vertex slots.
func New(n uint32, workers int) *Graph {
	g := &Graph{verts: make([]vertex, n), shards: make([]shard, numShards), workers: workers}
	for i := range g.shards {
		g.shards[i].p = pma.New(pma.WithTerraceDensity[uint64]())
	}
	return g
}

// Name identifies the engine in benchmark output.
func (g *Graph) Name() string { return "Terrace" }

// NumVertices returns the number of vertex slots.
func (g *Graph) NumVertices() uint32 { return uint32(len(g.verts)) }

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() uint64 { return g.m.Load() }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 { return g.verts[v].deg }

func (g *Graph) shardOf(v uint32) *shard {
	return &g.shards[int(uint64(v)*numShards/uint64(len(g.verts)+1))]
}

func key(v, u uint32) uint64 { return uint64(v)<<32 | uint64(u) }

func (vb *vertex) inlineLen() int {
	if vb.deg < inlineCap {
		return int(vb.deg)
	}
	return inlineCap
}

func (vb *vertex) inlineFind(u uint32) (int, bool) {
	n := vb.inlineLen()
	for i := 0; i < n; i++ {
		if vb.inline[i] == u {
			return i, true
		}
		if vb.inline[i] > u {
			return i, false
		}
	}
	return n, false
}

// ForEachNeighbor applies f to v's out-neighbors in ascending order:
// inline slots first (the smallest), then the PMA range or the B-tree.
func (g *Graph) ForEachNeighbor(v uint32, f func(u uint32)) {
	vb := &g.verts[v]
	n := vb.inlineLen()
	for i := 0; i < n; i++ {
		f(vb.inline[i])
	}
	if vb.deg <= inlineCap {
		return
	}
	if vb.tree != nil {
		vb.tree.Traverse(f)
		return
	}
	sh := g.shardOf(v)
	start, ok := sh.offsets()[v]
	if !ok {
		return
	}
	sh.p.IterateFrom(int(start), func(_ int, k uint64) bool {
		if uint32(k>>32) != v {
			return false
		}
		f(uint32(k))
		return true
	})
}

// NeighborBlocks yields v's out-neighbors in ascending order
// (engine.NeighborBlocker): the inline slots as one block, then either the
// B-tree node by node or the vertex's run of the shared PMA. PMA keys pack
// (v, u) into a uint64, so that run is decoded into pooled scratch in
// chunks of at most pmaChunk neighbors, each yielded as one block.
func (g *Graph) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	vb := &g.verts[v]
	n := vb.inlineLen()
	if n > 0 && !yield(vb.inline[:n:n]) {
		return
	}
	if vb.deg <= inlineCap {
		return
	}
	if vb.tree != nil {
		vb.tree.Blocks(yield)
		return
	}
	sh := g.shardOf(v)
	start, ok := sh.offsets()[v]
	if !ok {
		return
	}
	sp := pmaScratch.Get().(*[]uint32)
	buf, more := (*sp)[:0], true
	sh.p.IterateFrom(int(start), func(_ int, k uint64) bool {
		if uint32(k>>32) != v {
			return false
		}
		if buf = append(buf, uint32(k)); len(buf) == pmaChunk {
			more = yield(buf)
			buf = buf[:0]
		}
		return more
	})
	if k := len(buf); more && k > 0 {
		yield(buf[:k:k])
	}
	pmaScratch.Put(sp)
}

// pmaChunk bounds the decoded PMA block NeighborBlocks yields at once.
const pmaChunk = 256

// pmaScratch pools the decode buffers of NeighborBlocks, so concurrent
// readers each hold their own and no call allocates one in steady state.
var pmaScratch = sync.Pool{New: func() any {
	b := make([]uint32, 0, pmaChunk)
	return &b
}}

// insertOne adds edge (v,u) under the vertex's shard lock where needed.
func (g *Graph) insertOne(v, u uint32) bool {
	vb := &g.verts[v]
	n := vb.inlineLen()
	if n < inlineCap {
		i, found := vb.inlineFind(u)
		if found {
			return false
		}
		copy(vb.inline[i+1:n+1], vb.inline[i:n])
		vb.inline[i] = u
		vb.deg++
		return true
	}
	if u <= vb.inline[inlineCap-1] {
		i, found := vb.inlineFind(u)
		if found {
			return false
		}
		evicted := vb.inline[inlineCap-1]
		copy(vb.inline[i+1:], vb.inline[i:inlineCap-1])
		vb.inline[i] = u
		g.overflowInsert(v, vb, evicted)
		vb.deg++
		return true
	}
	if !g.overflowInsertChecked(v, vb, u) {
		return false
	}
	vb.deg++
	return true
}

// overflowInsert stores a known-absent overflow element.
func (g *Graph) overflowInsert(v uint32, vb *vertex, u uint32) {
	g.overflowInsertChecked(v, vb, u)
}

func (g *Graph) overflowInsertChecked(v uint32, vb *vertex, u uint32) bool {
	if vb.tree != nil {
		return vb.tree.Insert(u)
	}
	sh := g.shardOf(v)
	var ok bool
	sh.mu.Lock()
	if g.Instrument {
		t0 := time.Now()
		ok = sh.p.Insert(key(v, u))
		g.Stats.PMANanos.Add(int64(time.Since(t0)))
	} else {
		ok = sh.p.Insert(key(v, u))
	}
	if ok {
		sh.invalidate()
	}
	sh.mu.Unlock()
	if ok && vb.deg >= HighDegree {
		g.promoteToTree(v, vb)
	}
	return ok
}

// promoteToTree migrates v's overflow from the shared PMA into a B-tree.
func (g *Graph) promoteToTree(v uint32, vb *vertex) {
	sh := g.shardOf(v)
	sh.mu.Lock()
	var ns []uint32
	sh.p.TraverseRange(key(v, 0), key(v+1, 0), func(k uint64) {
		ns = append(ns, uint32(k))
	})
	for _, u := range ns {
		sh.p.Delete(key(v, u))
	}
	sh.invalidate()
	sh.mu.Unlock()
	vb.tree = btree.BulkLoad(ns)
}

// deleteOne removes edge (v,u).
func (g *Graph) deleteOne(v, u uint32) bool {
	vb := &g.verts[v]
	n := vb.inlineLen()
	i, found := vb.inlineFind(u)
	if found {
		copy(vb.inline[i:n-1], vb.inline[i+1:n])
		if vb.deg > inlineCap {
			vb.inline[n-1] = g.overflowDeleteMin(v, vb)
		}
		vb.deg--
		return true
	}
	if vb.deg <= inlineCap || n == 0 || u < vb.inline[n-1] {
		return false
	}
	if vb.tree != nil {
		if !vb.tree.Delete(u) {
			return false
		}
		if vb.tree.Len() == 0 {
			vb.tree = nil
		}
		vb.deg--
		return true
	}
	sh := g.shardOf(v)
	sh.mu.Lock()
	ok := sh.p.Delete(key(v, u))
	if ok {
		sh.invalidate()
	}
	sh.mu.Unlock()
	if !ok {
		return false
	}
	vb.deg--
	return true
}

// overflowDeleteMin pulls the overflow minimum back into the inline area.
func (g *Graph) overflowDeleteMin(v uint32, vb *vertex) uint32 {
	if vb.tree != nil {
		m := vb.tree.DeleteMin()
		if vb.tree.Len() == 0 {
			vb.tree = nil
		}
		return m
	}
	sh := g.shardOf(v)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k, ok := sh.p.RangeMin(key(v, 0), key(v+1, 0))
	if !ok {
		panic("terrace: overflow empty while degree > inlineCap")
	}
	sh.p.Delete(k)
	sh.invalidate()
	return uint32(k)
}

// InsertBatch adds the directed edges (src[i] -> dst[i]). Like the real
// system, medium-degree inserts all funnel into the shared PMA; workers
// process per-vertex groups but serialize on shard locks.
func (g *Graph) InsertBatch(src, dst []uint32) {
	t0 := time.Now()
	g.applyBatch(src, dst, true)
	g.Stats.UpdateNanos.Add(int64(time.Since(t0)))
}

// DeleteBatch removes the directed edges.
func (g *Graph) DeleteBatch(src, dst []uint32) {
	t0 := time.Now()
	g.applyBatch(src, dst, false)
	g.Stats.UpdateNanos.Add(int64(time.Since(t0)))
}

func (g *Graph) applyBatch(src, dst []uint32, insert bool) {
	if len(src) == 0 {
		return
	}
	ks := make([]uint64, len(src))
	for i := range src {
		ks[i] = key(src[i], dst[i])
	}
	parallel.SortUint64(ks, g.workers)
	w := 0
	for i, k := range ks {
		if i > 0 && k == ks[i-1] {
			continue
		}
		ks[w] = k
		w++
	}
	ks = ks[:w]
	if insert && g.m.Load() == 0 {
		g.bulkLoad(ks)
		return
	}
	// Group by source vertex.
	type group struct{ lo, hi int }
	var groups []group
	for i := 0; i < len(ks); {
		v := uint32(ks[i] >> 32)
		j := i
		for j < len(ks) && uint32(ks[j]>>32) == v {
			j++
		}
		groups = append(groups, group{lo: i, hi: j})
		i = j
	}
	var delta atomic.Int64
	parallel.ForBlocked(len(groups), g.workers, func(gi int) {
		gr := groups[gi]
		var d int64
		for i := gr.lo; i < gr.hi; i++ {
			v, u := uint32(ks[i]>>32), uint32(ks[i])
			if insert {
				if g.insertOne(v, u) {
					d++
				}
			} else {
				if g.deleteOne(v, u) {
					d--
				}
			}
		}
		delta.Add(d)
	})
	g.m.Add(uint64(delta.Load()))
}

// bulkLoad populates an empty engine from sorted, deduplicated packed
// keys: inline slots take each vertex's smallest neighbors, high-degree
// overflow goes straight to B-trees, and each shard's medium-degree
// overflow is built with one PMA bulk load. Real Terrace likewise
// initializes its PMA in bulk rather than edge-at-a-time.
func (g *Graph) bulkLoad(ks []uint64) {
	shardKeys := make([][]uint64, len(g.shards))
	for i := 0; i < len(ks); {
		v := uint32(ks[i] >> 32)
		j := i
		for j < len(ks) && uint32(ks[j]>>32) == v {
			j++
		}
		vb := &g.verts[v]
		deg := j - i
		vb.deg = uint32(deg)
		n := deg
		if n > inlineCap {
			n = inlineCap
		}
		for k := 0; k < n; k++ {
			vb.inline[k] = uint32(ks[i+k])
		}
		if deg > inlineCap {
			if deg > HighDegree {
				ns := make([]uint32, 0, deg-inlineCap)
				for k := i + inlineCap; k < j; k++ {
					ns = append(ns, uint32(ks[k]))
				}
				vb.tree = btree.BulkLoad(ns)
			} else {
				si := int(uint64(v) * numShards / uint64(len(g.verts)+1))
				shardKeys[si] = append(shardKeys[si], ks[i+inlineCap:j]...)
			}
		}
		i = j
	}
	parallel.ForBlocked(len(g.shards), g.workers, func(si int) {
		if len(shardKeys[si]) > 0 {
			g.shards[si].p = pma.BulkLoad(shardKeys[si], pma.WithTerraceDensity[uint64]())
			g.shards[si].invalidate()
		}
	})
	g.m.Store(uint64(len(ks)))
}

// MemoryUsage returns estimated resident bytes: vertex blocks, PMA shards,
// and B-trees.
func (g *Graph) MemoryUsage() uint64 {
	total := uint64(len(g.verts)) * 64
	for i := range g.shards {
		total += g.shards[i].p.Memory()
	}
	for i := range g.verts {
		if t := g.verts[i].tree; t != nil {
			total += t.Memory()
		}
	}
	return total
}
