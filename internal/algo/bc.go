package algo

import (
	"math"
	"sync/atomic"

	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// BC computes single-source betweenness centrality contributions from src
// (Brandes' algorithm restricted to one source, as in the paper's
// evaluation): a forward frontier-synchronous phase counting shortest
// paths, then a backward dependency-accumulation sweep over the BFS levels.
// It returns the dependency score of every vertex.
func BC(g engine.Graph, src uint32, p int) []float64 {
	t := obsBC.begin()
	var traversed uint64
	n := int(g.NumVertices())
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = NoParent
	}
	sigma := make([]uint64, n) // shortest-path counts
	depth[src] = 0
	sigma[src] = 1

	var levels [][]uint32
	frontier := []uint32{src}
	next := make([]bool, n)
	bufs := frontierBufs(p)
	curs := engine.NewBlockCursors(g, workers(p))
	level := int32(0)
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		if t.active() {
			traversed += frontierDegreeSum(g, frontier)
		}
		for i := range next {
			next[i] = false
		}
		level++
		parallel.ForChunkW(len(frontier), p, func(w, lo, hi int) {
			cur := curs[w]
			var sv uint64
			scan := func(bs []uint32) bool {
				s, lv := sv, level // hoist heap captures off the loop
				for _, u := range bs {
					if atomic.CompareAndSwapInt32(&depth[u], NoParent, lv) {
						next[u] = true
					}
					if atomic.LoadInt32(&depth[u]) == lv {
						atomic.AddUint64(&sigma[u], s)
					}
				}
				return true
			}
			for i := lo; i < hi; i++ {
				v := frontier[i]
				sv = sigma[v]
				cur.Blocks(v, scan)
			}
		})
		// Each level's frontier is retained in levels for the backward
		// sweep, so collect into a fresh slice rather than reusing one.
		frontier = collectFrontier(make([]uint32, 0, len(frontier)), next, bufs, p)
	}

	// Backward sweep: vertices of level d read the finished deltas of
	// level d+1, so each level is parallel with no atomics.
	delta := make([]float64, n)
	for l := len(levels) - 2; l >= 0; l-- {
		lv := levels[l]
		dv := int32(l)
		parallel.ForChunkW(len(lv), p, func(w, lo, hi int) {
			cur := curs[w]
			var sv float64
			var acc float64
			sum := func(bs []uint32) bool {
				var s float64 // block-local: spill to acc once per block
				for _, u := range bs {
					if depth[u] == dv+1 && sigma[u] > 0 {
						s += sv / float64(sigma[u]) * (1 + delta[u])
					}
				}
				acc += s
				return true
			}
			for i := lo; i < hi; i++ {
				v := lv[i]
				sv = float64(sigma[v])
				acc = 0
				cur.Blocks(v, sum)
				delta[v] = acc
			}
		})
	}
	delta[src] = 0
	for i := range delta {
		if math.IsNaN(delta[i]) {
			delta[i] = 0
		}
	}
	// The backward sweep revisits the forward levels' adjacency once more.
	obsBC.done(t, 2*traversed)
	return delta
}
