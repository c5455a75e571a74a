package algo

import (
	"sync/atomic"
	"time"

	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// TCResult carries a triangle count plus the time spent materializing
// adjacency into flat arrays, the "Traversal" column of Table 2.
type TCResult struct {
	Triangles uint64
	Traversal time.Duration
	Total     time.Duration
}

// TriangleCount counts triangles on a symmetrized simple graph following
// the paper's LSGraph implementation (§6.3): first traverse every
// structure once to store neighbors in flat arrays (CSR), then count by
// sorted-array intersections, each triangle (v < u < w) exactly once.
func TriangleCount(g engine.Graph, p int) TCResult {
	t := obsTC.begin()
	start := time.Now()
	offs, adj := Materialize(g, p)
	traversal := time.Since(start)

	n := int(g.NumVertices())
	var total atomic.Uint64
	parallel.ForChunk(n, p, func(lo, hi int) {
		var local uint64
		for v := lo; v < hi; v++ {
			nv := adj[offs[v]:offs[v+1]]
			for _, u := range nv {
				if u <= uint32(v) {
					continue
				}
				nu := adj[offs[u]:offs[u+1]]
				local += intersectAbove(nv, nu, u)
			}
		}
		total.Add(local)
	})
	// The materialization pass reads each stored edge exactly once.
	obsTC.done(t, uint64(len(adj)))
	return TCResult{
		Triangles: total.Load(),
		Traversal: traversal,
		Total:     time.Since(start),
	}
}

// intersectAbove counts elements common to sorted a and b strictly greater
// than floor.
func intersectAbove(a, b []uint32, floor uint32) uint64 {
	i := upperBound(a, floor)
	j := upperBound(b, floor)
	var c uint64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// upperBound returns the index of the first element > x in sorted s.
func upperBound(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Materialize flattens the engine's adjacency into CSR form (offsets and a
// packed neighbor array) with one ordered traversal per vertex.
func Materialize(g engine.Graph, p int) (offs []uint64, adj []uint32) {
	n := int(g.NumVertices())
	offs = make([]uint64, n+1)
	for v := 0; v < n; v++ {
		offs[v+1] = offs[v] + uint64(g.Degree(uint32(v)))
	}
	adj = make([]uint32, offs[n])
	curs := engine.NewBlockCursors(g, workers(p))
	parallel.ForChunkW(n, p, func(wk, lo, hi int) {
		// Each block is a contiguous run, so the fill is a bulk copy per
		// run instead of a store per edge (clamped to the vertex's CSR
		// region).
		cur := curs[wk]
		var w, end uint64
		cp := func(bs []uint32) bool {
			w += uint64(copy(adj[w:end], bs))
			return w < end
		}
		for v := lo; v < hi; v++ {
			w, end = offs[v], offs[v+1]
			if w < end {
				cur.Blocks(uint32(v), cp)
			}
		}
	})
	return offs, adj
}
