// Package algo implements the five analytics kernels of the evaluation —
// BFS, single-source betweenness centrality, PageRank, connected
// components, and triangle counting — against the engine-neutral Graph
// interface, so LSGraph and the three baselines run identical code above
// the storage layer (the paper layers Ligra-style EdgeMap over each
// system the same way).
//
// The kernels assume the input is symmetrized (every edge stored in both
// directions), as in the paper's evaluation; direction-optimizing BFS and
// pull-style PageRank read neighbor lists as in-edges under that
// assumption.
package algo

import (
	"sync/atomic"

	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// NoParent marks unreached vertices in BFS/BC parent and depth arrays.
const NoParent = int32(-1)

// BFS runs a direction-optimizing (push/pull hybrid) parallel breadth-first
// search from src using p workers (p <= 0 means GOMAXPROCS) and returns the
// parent array, NoParent for unreached vertices (src is its own parent).
func BFS(g engine.Graph, src uint32, p int) []int32 {
	t := obsBFS.begin()
	var traversed uint64
	n := int(g.NumVertices())
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = NoParent
	}
	parent[src] = int32(src)

	frontier := []uint32{src}
	inFrontier := make([]bool, n)
	next := make([]bool, n)
	bufs := frontierBufs(p)
	curs := engine.NewBlockCursors(g, workers(p))
	totalEdges := g.NumEdges()
	for len(frontier) > 0 {
		// Direction heuristic (Beamer): go bottom-up when the frontier
		// touches a large fraction of the graph's edges.
		var frontierEdges uint64
		for _, v := range frontier {
			frontierEdges += uint64(g.Degree(v))
		}
		traversed += frontierEdges
		for i := range next {
			next[i] = false
		}
		if totalEdges > 0 && frontierEdges > totalEdges/20 {
			for i := range inFrontier {
				inFrontier[i] = false
			}
			for _, v := range frontier {
				inFrontier[v] = true
			}
			bfsBottomUp(curs, parent, inFrontier, next, p)
		} else {
			bfsTopDown(curs, frontier, parent, next, p)
		}
		frontier = collectFrontier(frontier, next, bufs, p)
	}
	obsBFS.done(t, traversed)
	return parent
}

func bfsTopDown(curs []engine.BlockCursor, frontier []uint32, parent []int32, next []bool, p int) {
	parallel.ForChunkW(len(frontier), p, func(w, lo, hi int) {
		cur := curs[w]
		var v uint32
		scan := func(bs []uint32) bool {
			pv := int32(v) // hoist the heap-captured source off the loop
			for _, u := range bs {
				if atomic.CompareAndSwapInt32(&parent[u], NoParent, pv) {
					next[u] = true
				}
			}
			return true
		}
		for i := lo; i < hi; i++ {
			v = frontier[i]
			cur.Blocks(v, scan)
		}
	})
}

func bfsBottomUp(curs []engine.BlockCursor, parent []int32, inFrontier, next []bool, p int) {
	parallel.ForChunkW(len(parent), p, func(w, lo, hi int) {
		cur := curs[w]
		// Returning false from the yield stops the walk once a frontier
		// parent is found, at block granularity.
		var v int
		scan := func(bs []uint32) bool {
			for _, u := range bs {
				if inFrontier[u] {
					parent[v] = int32(u)
					next[v] = true
					return false
				}
			}
			return true
		}
		for v = lo; v < hi; v++ {
			if parent[v] == NoParent {
				cur.Blocks(uint32(v), scan)
			}
		}
	})
}

// BFSLevels returns the depth of each vertex from src (-1 if unreached),
// derived from a BFS parent array walk; used by tests and BC.
func BFSLevels(g engine.Graph, src uint32, p int) []int32 {
	t := obsBFSLvl.begin()
	var traversed uint64
	n := int(g.NumVertices())
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = NoParent
	}
	depth[src] = 0
	frontier := []uint32{src}
	level := int32(0)
	next := make([]bool, n)
	bufs := frontierBufs(p)
	curs := engine.NewBlockCursors(g, workers(p))
	for len(frontier) > 0 {
		if t.active() {
			traversed += frontierDegreeSum(g, frontier)
		}
		for i := range next {
			next[i] = false
		}
		level++
		parallel.ForChunkW(len(frontier), p, func(w, lo, hi int) {
			cur := curs[w]
			scan := func(bs []uint32) bool {
				lv := level // hoist the heap-captured level off the loop
				for _, u := range bs {
					if atomic.CompareAndSwapInt32(&depth[u], NoParent, lv) {
						next[u] = true
					}
				}
				return true
			}
			for i := lo; i < hi; i++ {
				cur.Blocks(frontier[i], scan)
			}
		})
		frontier = collectFrontier(frontier, next, bufs, p)
	}
	obsBFSLvl.done(t, traversed)
	return depth
}
