package algo

import (
	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// PageRankDamping is the standard damping factor.
const PageRankDamping = 0.85

// PageRank runs iters synchronous pull-style iterations (Ligra-style, as
// in the paper's evaluation; iters <= 0 means 10) with p workers and
// returns the rank vector. Pull over neighbors reads each vertex's
// in-contributions without atomics; dangling mass is redistributed evenly
// each iteration so ranks stay a probability distribution.
func PageRank(g engine.Graph, iters, p int) []float64 {
	if iters <= 0 {
		iters = 10
	}
	t := obsPR.begin()
	n := int(g.NumVertices())
	if n == 0 {
		obsPR.done(t, 0) // an empty graph is still a recorded run
		return nil
	}
	rank := make([]float64, n)
	contrib := make([]float64, n) // rank[u] / degree(u), precomputed per iter
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	curs := engine.NewBlockCursors(g, workers(p))
	// One cache-line-padded accumulator slot per worker: ForChunkW runs one
	// goroutine per worker index, so each slot is written by exactly one
	// goroutine — no atomics, no false sharing, and (unlike the old
	// hash-by-chunk-index scheme) no collisions between workers.
	danglingParts := make([]padF64, workers(p))
	for it := 0; it < iters; it++ {
		for i := range danglingParts {
			danglingParts[i].v = 0
		}
		parallel.ForChunkW(n, p, func(w, lo, hi int) {
			var dangling float64
			for v := lo; v < hi; v++ {
				d := g.Degree(uint32(v))
				if d == 0 {
					dangling += rank[v]
					contrib[v] = 0
					continue
				}
				contrib[v] = rank[v] / float64(d)
			}
			danglingParts[w].v += dangling
		})
		var dangling float64
		for i := range danglingParts {
			dangling += danglingParts[i].v
		}
		base := (1-PageRankDamping)*inv + PageRankDamping*dangling*inv
		parallel.ForChunkW(n, p, func(w, lo, hi int) {
			// One closure per chunk, not per vertex: the yield ranges a
			// contiguous slice, so the per-edge cost is one indexed load
			// and add. The captured accumulator lives on the heap, so sum
			// into a register-local and spill once per block.
			cur := curs[w]
			var acc float64
			sum := func(bs []uint32) bool {
				var s float64
				for _, u := range bs {
					s += contrib[u]
				}
				acc += s
				return true
			}
			for v := lo; v < hi; v++ {
				acc = 0
				cur.Blocks(uint32(v), sum)
				next[v] = base + PageRankDamping*acc
			}
		})
		rank, next = next, rank
	}
	// Pull-style iterations read every edge exactly once per iteration.
	obsPR.done(t, uint64(iters)*g.NumEdges())
	return rank
}
