package algo

import (
	"sync/atomic"

	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// atomicMinUint32 lowers *addr to v if v is smaller, reporting whether it
// changed the value.
func atomicMinUint32(addr *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, v) {
			return true
		}
	}
}

// CC computes connected components by parallel frontier-driven label
// propagation (the Ligra formulation the paper's evaluation uses): every
// vertex starts labeled with its own ID and frontier vertices push their
// label to neighbors via atomic min until no label changes. It returns the
// component label of each vertex (the minimum vertex ID in the component,
// for symmetrized inputs).
func CC(g engine.Graph, p int) []uint32 {
	t := obsCC.begin()
	var traversed uint64
	n := int(g.NumVertices())
	comp := make([]uint32, n)
	frontier := make([]uint32, n)
	for i := range comp {
		comp[i] = uint32(i)
		frontier[i] = uint32(i)
	}
	// changed is a uint32 flag array because several workers can lower the
	// same vertex's label in one round; each marks it with an atomic store.
	changed := make([]uint32, n)
	bufs := frontierBufs(p)
	bg := blocker(g)
	for len(frontier) > 0 {
		if t.active() {
			traversed += frontierDegreeSum(g, frontier)
		}
		clear(changed)
		parallel.ForChunk(len(frontier), p, func(lo, hi int) {
			if bg != nil {
				var cv uint32
				scan := func(bs []uint32) bool {
					c := cv // hoist the heap-captured label off the loop
					for _, u := range bs {
						if atomicMinUint32(&comp[u], c) {
							atomic.StoreUint32(&changed[u], 1)
						}
					}
					return true
				}
				for i := lo; i < hi; i++ {
					v := frontier[i]
					cv = atomic.LoadUint32(&comp[v])
					bg.NeighborBlocks(v, scan)
				}
				return
			}
			for i := lo; i < hi; i++ {
				v := frontier[i]
				cv := atomic.LoadUint32(&comp[v])
				g.ForEachNeighbor(v, func(u uint32) {
					if atomicMinUint32(&comp[u], cv) {
						atomic.StoreUint32(&changed[u], 1)
					}
				})
			}
		})
		frontier = collectFrontier(frontier, changed, bufs, p)
	}
	obsCC.done(t, traversed)
	return comp
}
