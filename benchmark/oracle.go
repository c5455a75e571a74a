package main

import (
	"fmt"
	"slices"
	"sort"

	"lsgraph/internal/refgraph"
)

// Correctness oracles. Every workload checks the program's answers
// against these simple references outside its timed sections; a mismatch
// fails the run before any metric is printed.

// refBFSLevels is a serial BFS over the reference graph: level[v] is the
// hop distance from src, -1 when unreachable.
func refBFSLevels(g *refgraph.Graph, src uint32) []int32 {
	level := make([]int32, g.NumVertices())
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []uint32{src}
	for d := int32(1); len(frontier) > 0; d++ {
		var next []uint32
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if level[w] < 0 {
					level[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return level
}

// refComponents labels each vertex with the smallest vertex ID of its
// connected component (union-find over the reference graph's edges).
func refComponents(g *refgraph.Graph) []uint32 {
	n := g.NumVertices()
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := uint32(0); v < n; v++ {
		for _, u := range g.Neighbors(v) {
			a, b := find(v), find(u)
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	out := make([]uint32, n)
	for v := range out {
		out[v] = find(uint32(v))
	}
	return out
}

// checkLevels compares BFS levels vertex by vertex.
func checkLevels(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("bfs: %d levels, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("bfs: level[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkPartition reports whether got and want label the same partition
// of the vertices, whatever names each gives its components.
func checkPartition(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("cc: %d labels, want %d", len(got), len(want))
	}
	fwd := map[uint32]uint32{}
	back := map[uint32]uint32{}
	for v := range want {
		g, w := got[v], want[v]
		if x, ok := fwd[g]; ok && x != w {
			return fmt.Errorf("cc: vertex %d joins component %d, reference splits it", v, g)
		}
		if x, ok := back[w]; ok && x != g {
			return fmt.Errorf("cc: vertex %d splits reference component %d", v, w)
		}
		fwd[g], back[w] = w, g
	}
	return nil
}

// edgeSet is the reference for a served graph: the sorted, deduplicated
// keys (src<<32 | dst) of every edge the server acknowledged.
type edgeSet []uint64

func newEdgeSet(keys []uint64) edgeSet {
	slices.Sort(keys)
	return edgeSet(slices.Compact(keys))
}

func (s edgeSet) numEdges() uint64 { return uint64(len(s)) }

func (s edgeSet) degree(v uint32) uint32 {
	lo := sort.Search(len(s), func(i int) bool { return s[i] >= uint64(v)<<32 })
	hi := sort.Search(len(s), func(i int) bool { return s[i] >= (uint64(v)+1)<<32 })
	return uint32(hi - lo)
}

// checkServed compares a served graph's edge count and the degrees of a
// seeded vertex sample against the reference set. degree is the server's
// answer for one vertex.
func checkServed(what string, edges uint64, degree func(uint32) (uint32, error), ref edgeSet, sample []uint32) error {
	if edges != ref.numEdges() {
		return fmt.Errorf("%s: %d edges, reference has %d", what, edges, ref.numEdges())
	}
	for _, v := range sample {
		d, err := degree(v)
		if err != nil {
			return fmt.Errorf("%s: degree(%d): %w", what, v, err)
		}
		if want := ref.degree(v); d != want {
			return fmt.Errorf("%s: degree(%d) = %d, reference has %d", what, v, d, want)
		}
	}
	return nil
}
