package aspen

import (
	"sync/atomic"

	"lsgraph/internal/parallel"
)

// Graph is the Aspen-style engine: an array of per-vertex persistent
// chunked-tree roots. Updates produce new roots (path copying); readers of
// a previous snapshot are unaffected, matching Aspen's functional-snapshot
// model. Batch updates follow the same sort/group/per-vertex-worker
// discipline as the other engines; a vertex whose group is large is
// rebuilt by a flat merge, Aspen's union-style bulk path.
type Graph struct {
	roots   []*cnode
	degs    []uint32
	m       atomic.Uint64
	workers int
}

// New returns an empty Aspen engine with n vertex slots.
func New(n uint32, workers int) *Graph {
	return &Graph{roots: make([]*cnode, n), degs: make([]uint32, n), workers: workers}
}

// Name identifies the engine in benchmark output.
func (g *Graph) Name() string { return "Aspen" }

// NumVertices returns the number of vertex slots.
func (g *Graph) NumVertices() uint32 { return uint32(len(g.roots)) }

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() uint64 { return g.m.Load() }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 { return g.degs[v] }

// Has reports whether edge (v,u) is present.
func (g *Graph) Has(v, u uint32) bool { return contains(g.roots[v], u) }

// ForEachNeighbor applies f to v's out-neighbors in ascending order.
func (g *Graph) ForEachNeighbor(v uint32, f func(u uint32)) {
	walkUntil(g.roots[v], func(u uint32) bool { f(u); return true })
}

// NeighborBlocks yields v's neighbors chunk by chunk in ascending order
// (engine.NeighborBlocker); each block is one tree node's sorted chunk.
func (g *Graph) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	blocksUntil(g.roots[v], yield)
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
		gl := gr.hi - gr.lo
		var d int64
		if gl >= 32 && gl*4 >= int(g.degs[v]) {
			d = g.applyGroupBulk(v, ks[gr.lo:gr.hi], ins)
		} else {
			root := g.roots[v]
			for i := gr.lo; i < gr.hi; i++ {
				u := uint32(ks[i])
				var ok bool
				if ins {
					root, ok = insert(root, u)
					if ok {
						d++
					}
				} else {
					root, ok = remove(root, u)
					if ok {
						d--
					}
				}
			}
			g.roots[v] = root
			g.degs[v] = uint32(size(root))
		}
		delta.Add(d)
	})
	g.m.Add(uint64(delta.Load()))
}

// applyGroupBulk merges (or subtracts) a sorted group into vertex v's set
// with a flat merge and rebuilds the tree, Aspen's bulk-union analogue.
func (g *Graph) applyGroupBulk(v uint32, ks []uint64, ins bool) int64 {
	old := make([]uint32, 0, int(g.degs[v])+len(ks))
	walkUntil(g.roots[v], func(u uint32) bool { old = append(old, u); return true })
	var merged []uint32
	if ins {
		merged = make([]uint32, 0, len(old)+len(ks))
		i, j := 0, 0
		for i < len(old) && j < len(ks) {
			a, b := old[i], uint32(ks[j])
			switch {
			case a < b:
				merged = append(merged, a)
				i++
			case a > b:
				merged = append(merged, b)
				j++
			default:
				merged = append(merged, a)
				i++
				j++
			}
		}
		merged = append(merged, old[i:]...)
		for ; j < len(ks); j++ {
			merged = append(merged, uint32(ks[j]))
		}
	} else {
		merged = make([]uint32, 0, len(old))
		j := 0
		for _, a := range old {
			for j < len(ks) && uint32(ks[j]) < a {
				j++
			}
			if j < len(ks) && uint32(ks[j]) == a {
				j++
				continue
			}
			merged = append(merged, a)
		}
	}
	g.roots[v] = build(merged)
	g.degs[v] = uint32(len(merged))
	return int64(len(merged)) - int64(len(old))
}

// MemoryUsage returns estimated resident bytes across all vertex trees.
func (g *Graph) MemoryUsage() uint64 {
	total := uint64(len(g.roots)) * 12 // root pointer + degree
	for _, r := range g.roots {
		total += memoryOf(r)
	}
	return total
}
