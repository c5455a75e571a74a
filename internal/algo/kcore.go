package algo

import (
	"lsgraph/internal/engine"
)

// KCore computes the core number of every vertex of a symmetrized graph:
// the largest k such that the vertex belongs to a subgraph where every
// vertex has degree >= k. It uses the classic peeling algorithm with
// bucketed degrees (O(m) after bucket setup), a common companion workload
// for graph-mining engines: like triangle counting it is dominated by
// neighbor-list traversal, so it benefits from the same locality the
// paper's §6.3 measures.
func KCore(g engine.Graph, p int) []uint32 {
	t := obsKCore.begin()
	n := int(g.NumVertices())
	deg := make([]uint32, n)
	maxDeg := uint32(0)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(uint32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree (bin[d] lists vertices of degree d).
	binStart := make([]uint32, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for i := 1; i < len(binStart); i++ {
		binStart[i] += binStart[i-1]
	}
	order := make([]uint32, n) // vertices sorted by current degree
	posOf := make([]uint32, n) // position of each vertex in order
	fill := append([]uint32(nil), binStart[:maxDeg+1]...)
	for v := 0; v < n; v++ {
		d := deg[v]
		order[fill[d]] = uint32(v)
		posOf[v] = fill[d]
		fill[d]++
	}
	// Peel in degree order; when v is removed, each unprocessed neighbor u
	// with deg[u] > deg[v] moves one bucket down by swapping it to the
	// front of its bucket.
	core := make([]uint32, n)
	// The peel is inherently sequential, so one cursor serves the whole
	// run: one yield call per contiguous run of the pivot's neighbors.
	cur := engine.NewBlockCursor(g)
	var dv uint32
	scan := func(bs []uint32) bool {
		d := dv // hoist the heap-captured pivot degree off the loop
		for _, u := range bs {
			if deg[u] <= d {
				continue
			}
			du := deg[u]
			pu := posOf[u]
			pw := binStart[du]
			w := order[pw]
			if u != w {
				order[pu], order[pw] = w, u
				posOf[u], posOf[w] = pw, pu
			}
			binStart[du]++
			deg[u]--
		}
		return true
	}
	for i := 0; i < n; i++ {
		v := order[i]
		core[v] = deg[v]
		dv = deg[v]
		cur.Blocks(v, scan)
	}
	// Peeling visits every vertex's adjacency exactly once.
	obsKCore.done(t, g.NumEdges())
	return core
}

// MaxCore returns the largest core number (the graph's degeneracy).
func MaxCore(core []uint32) uint32 {
	var m uint32
	for _, c := range core {
		if c > m {
			m = c
		}
	}
	return m
}
