// Package sortledton re-implements the data-structure design of Sortledton
// (Fuchs et al., VLDB '22), the additional baseline §6.1 of the paper
// weighs before settling on PaC-tree: sorted neighborhoods stored as plain
// vectors for low degrees and as unrolled (block-based) skip lists for
// high degrees. Sortledton's transactional versioning is out of scope here
// (the paper's comparison is storage-level); see DESIGN.md.
package sortledton

import (
	"sync/atomic"

	"lsgraph/internal/parallel"
	"lsgraph/internal/skiplist"
)

// vectorMax is the degree up to which a neighborhood stays a plain sorted
// vector, Sortledton's small/large cut-over.
const vectorMax = 128

type vertex struct {
	vec  []uint32 // sorted; nil once list != nil
	list *skiplist.List
}

func (vb *vertex) degree() uint32 {
	if vb.list != nil {
		return uint32(vb.list.Len())
	}
	return uint32(len(vb.vec))
}

// Graph is the Sortledton-style engine.
type Graph struct {
	verts   []vertex
	m       atomic.Uint64
	workers int
}

// New returns an empty engine with n vertex slots.
func New(n uint32, workers int) *Graph {
	return &Graph{verts: make([]vertex, n), workers: workers}
}

// Name identifies the engine in benchmark output.
func (g *Graph) Name() string { return "Sortledton" }

// NumVertices returns the number of vertex slots.
func (g *Graph) NumVertices() uint32 { return uint32(len(g.verts)) }

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() uint64 { return g.m.Load() }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 { return g.verts[v].degree() }

// Has reports whether edge (v,u) is present.
func (g *Graph) Has(v, u uint32) bool {
	vb := &g.verts[v]
	if vb.list != nil {
		return vb.list.Has(u)
	}
	_, found := searchVec(vb.vec, u)
	return found
}

func searchVec(vec []uint32, u uint32) (int, bool) {
	lo, hi := 0, len(vec)
	for lo < hi {
		mid := (lo + hi) / 2
		if vec[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(vec) && vec[lo] == u
}

// ForEachNeighbor applies f to v's out-neighbors in ascending order.
func (g *Graph) ForEachNeighbor(v uint32, f func(u uint32)) {
	vb := &g.verts[v]
	if vb.list != nil {
		vb.list.Traverse(f)
		return
	}
	for _, u := range vb.vec {
		f(u)
	}
}

// NeighborBlocks yields v's neighbors in ascending order
// (engine.NeighborBlocker): a low-degree vertex's whole vector as one
// block, a high-degree vertex's skip list one block node at a time.
func (g *Graph) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	vb := &g.verts[v]
	if vb.list != nil {
		vb.list.Blocks(yield)
		return
	}
	if n := len(vb.vec); n > 0 {
		yield(vb.vec[:n:n])
	}
}

// insertOne adds edge (v,u); the caller owns vertex v.
func (g *Graph) insertOne(v, u uint32) bool {
	vb := &g.verts[v]
	if vb.list != nil {
		return vb.list.Insert(u)
	}
	i, found := searchVec(vb.vec, u)
	if found {
		return false
	}
	vb.vec = append(vb.vec, 0)
	copy(vb.vec[i+1:], vb.vec[i:])
	vb.vec[i] = u
	if len(vb.vec) > vectorMax {
		l := skiplist.New(uint64(v)*2654435761 + 1)
		for _, k := range vb.vec {
			l.Insert(k)
		}
		vb.list = l
		vb.vec = nil
	}
	return true
}

// deleteOne removes edge (v,u); the caller owns vertex v. Neighborhoods do
// not demote from skip list back to vector (hysteresis, like the other
// engines).
func (g *Graph) deleteOne(v, u uint32) bool {
	vb := &g.verts[v]
	if vb.list != nil {
		return vb.list.Delete(u)
	}
	i, found := searchVec(vb.vec, u)
	if !found {
		return false
	}
	vb.vec = append(vb.vec[:i], vb.vec[i+1:]...)
	return true
}

// InsertBatch adds the directed edges (src[i] -> dst[i]).
func (g *Graph) InsertBatch(src, dst []uint32) { g.applyBatch(src, dst, true) }

// DeleteBatch removes the directed edges.
func (g *Graph) DeleteBatch(src, dst []uint32) { g.applyBatch(src, dst, false) }

func (g *Graph) applyBatch(src, dst []uint32, ins bool) {
	if len(src) == 0 {
		return
	}
	ks := make([]uint64, len(src))
	for i := range src {
		ks[i] = uint64(src[i])<<32 | uint64(dst[i])
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
		v := uint32(ks[gr.lo] >> 32)
		var d int64
		for i := gr.lo; i < gr.hi; i++ {
			u := uint32(ks[i])
			if ins {
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

// MemoryUsage returns estimated resident bytes.
func (g *Graph) MemoryUsage() uint64 {
	total := uint64(len(g.verts)) * 40
	for i := range g.verts {
		if l := g.verts[i].list; l != nil {
			total += l.Memory()
		} else {
			total += uint64(cap(g.verts[i].vec) * 4)
		}
	}
	return total
}
