// Package pactree re-implements the design of PaC-trees (Dhulipala et al.,
// PLDI '22), the second functional baseline of the paper's evaluation.
// Unlike Aspen's C-trees, which attach chunks to every tree node, a
// PaC-tree keeps arrays only in leaves with internal nodes purely routing —
// larger contiguous runs and fewer pointers, which is why the paper finds
// it a little faster than Aspen at both updates and analytics while still
// behind LSGraph's flat per-vertex layouts.
//
// Updates path-copy from root to leaf, preserving prior snapshots. Batch
// updates partition the sorted group across children recursively, PaC-
// tree's multi-insert.
package pactree

import (
	"sync/atomic"

	"lsgraph/internal/parallel"
)

// leafTarget is the leaf array size at bulk build; leaves split at 2× this.
const leafTarget = 128

// fanout is the child count of internal nodes at bulk build.
const fanout = 8

// pnode is an immutable tree node: either a leaf with a sorted element
// array, or an internal node with separators (seps[i] = smallest element
// of children[i+1]).
type pnode struct {
	elems    []uint32 // leaves only
	seps     []uint32
	children []*pnode
	size     int
}

func (n *pnode) leaf() bool { return n.children == nil }

func sizeOf(n *pnode) int {
	if n == nil {
		return 0
	}
	return n.size
}

// buildTree constructs a balanced tree over sorted distinct ns.
func buildTree(ns []uint32) *pnode {
	if len(ns) == 0 {
		return nil
	}
	if len(ns) <= 2*leafTarget {
		e := make([]uint32, len(ns))
		copy(e, ns)
		return &pnode{elems: e, size: len(ns)}
	}
	// Split into up to fanout children of near-equal size.
	nChild := (len(ns) + leafTarget - 1) / leafTarget
	if nChild > fanout {
		nChild = fanout
	}
	n := &pnode{size: len(ns)}
	for i := 0; i < nChild; i++ {
		lo, hi := i*len(ns)/nChild, (i+1)*len(ns)/nChild
		if i > 0 {
			n.seps = append(n.seps, ns[lo])
		}
		n.children = append(n.children, buildTree(ns[lo:hi]))
	}
	return n
}

// route returns the child index covering u.
func (n *pnode) route(u uint32) int {
	lo, hi := 0, len(n.seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.seps[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertNode returns a replacement subtree with u added. A leaf growing
// past 2×leafTarget splits in two; splits propagate as extra children and
// internal nodes split once past 2×fanout children.
func insertNode(n *pnode, u uint32) (*pnode, bool) {
	if n == nil {
		return &pnode{elems: []uint32{u}, size: 1}, true
	}
	if n.leaf() {
		i, found := search(n.elems, u)
		if found {
			return n, false
		}
		e := make([]uint32, len(n.elems)+1)
		copy(e, n.elems[:i])
		e[i] = u
		copy(e[i+1:], n.elems[i:])
		if len(e) <= 2*leafTarget {
			return &pnode{elems: e, size: len(e)}, true
		}
		mid := len(e) / 2
		return &pnode{
			seps:     []uint32{e[mid]},
			children: []*pnode{{elems: e[:mid], size: mid}, {elems: e[mid:], size: len(e) - mid}},
			size:     len(e),
		}, true
	}
	ci := n.route(u)
	repl, ok := insertNode(n.children[ci], u)
	if !ok {
		return n, false
	}
	nn := &pnode{size: n.size + 1}
	nn.seps = append([]uint32(nil), n.seps...)
	nn.children = append([]*pnode(nil), n.children...)
	if !repl.leaf() && len(repl.children) == 2 && n.children[ci].leaf() {
		// The child leaf split: splice its two halves in place.
		nn.children[ci] = repl.children[0]
		nn.children = append(nn.children, nil)
		copy(nn.children[ci+2:], nn.children[ci+1:])
		nn.children[ci+1] = repl.children[1]
		nn.seps = append(nn.seps, 0)
		copy(nn.seps[ci+1:], nn.seps[ci:])
		nn.seps[ci] = repl.seps[0]
		if len(nn.children) > 2*fanout {
			return splitInternal(nn), true
		}
		return nn, true
	}
	nn.children[ci] = repl
	return nn, true
}

// splitInternal splits an overweight internal node into a two-child parent.
func splitInternal(n *pnode) *pnode {
	mid := len(n.children) / 2
	left := &pnode{
		seps:     append([]uint32(nil), n.seps[:mid-1]...),
		children: append([]*pnode(nil), n.children[:mid]...),
	}
	right := &pnode{
		seps:     append([]uint32(nil), n.seps[mid:]...),
		children: append([]*pnode(nil), n.children[mid:]...),
	}
	for _, c := range left.children {
		left.size += sizeOf(c)
	}
	for _, c := range right.children {
		right.size += sizeOf(c)
	}
	return &pnode{
		seps:     []uint32{n.seps[mid-1]},
		children: []*pnode{left, right},
		size:     n.size,
	}
}

// removeNode returns a replacement subtree with u removed. Emptied leaves
// are dropped; internal nodes are not rebalanced on delete (engines shrink
// by rebuilding, as with the other baselines).
func removeNode(n *pnode, u uint32) (*pnode, bool) {
	if n == nil {
		return nil, false
	}
	if n.leaf() {
		i, found := search(n.elems, u)
		if !found {
			return n, false
		}
		if len(n.elems) == 1 {
			return nil, true
		}
		e := make([]uint32, len(n.elems)-1)
		copy(e, n.elems[:i])
		copy(e[i:], n.elems[i+1:])
		return &pnode{elems: e, size: len(e)}, true
	}
	ci := n.route(u)
	repl, ok := removeNode(n.children[ci], u)
	if !ok {
		return n, false
	}
	nn := &pnode{size: n.size - 1}
	nn.seps = append([]uint32(nil), n.seps...)
	nn.children = append([]*pnode(nil), n.children...)
	nn.children[ci] = repl
	if repl == nil {
		// Drop the emptied child and its separator.
		nn.children = append(nn.children[:ci], nn.children[ci+1:]...)
		if len(nn.seps) > 0 {
			si := ci
			if si >= len(nn.seps) {
				si = len(nn.seps) - 1
			}
			nn.seps = append(nn.seps[:si], nn.seps[si+1:]...)
		}
		if len(nn.children) == 0 {
			return nil, true
		}
		if len(nn.children) == 1 {
			return nn.children[0], true
		}
	}
	return nn, true
}

func search(s []uint32, u uint32) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == u
}

func containsNode(n *pnode, u uint32) bool {
	for n != nil {
		if n.leaf() {
			_, found := search(n.elems, u)
			return found
		}
		n = n.children[n.route(u)]
	}
	return false
}

func walkUntil(n *pnode, f func(uint32) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf() {
		for _, u := range n.elems {
			if !f(u) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !walkUntil(c, f) {
			return false
		}
	}
	return true
}

// blocksUntil yields each leaf's element array as one slice aliasing the
// node's storage — PaC-tree's honest block granularity: runs end at leaf
// boundaries, which is why its leaves-only layout out-blocks Aspen's
// per-node chunks but still trails a flat array.
func blocksUntil(n *pnode, yield func(block []uint32) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf() {
		if len(n.elems) == 0 {
			return true
		}
		return yield(n.elems[:len(n.elems):len(n.elems)])
	}
	for _, c := range n.children {
		if !blocksUntil(c, yield) {
			return false
		}
	}
	return true
}

func memoryOf(n *pnode) uint64 {
	if n == nil {
		return 0
	}
	m := uint64(cap(n.elems)*4+cap(n.seps)*4+cap(n.children)*8) + 80
	for _, c := range n.children {
		m += memoryOf(c)
	}
	return m
}

// Graph is the PaC-tree-style engine: per-vertex persistent trees with
// arrays only in leaves.
type Graph struct {
	roots   []*pnode
	m       atomic.Uint64
	workers int
}

// New returns an empty PaC-tree engine with n vertex slots.
func New(n uint32, workers int) *Graph {
	return &Graph{roots: make([]*pnode, n), workers: workers}
}

// Name identifies the engine in benchmark output.
func (g *Graph) Name() string { return "PaC-tree" }

// NumVertices returns the number of vertex slots.
func (g *Graph) NumVertices() uint32 { return uint32(len(g.roots)) }

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() uint64 { return g.m.Load() }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 { return uint32(sizeOf(g.roots[v])) }

// Has reports whether edge (v,u) is present.
func (g *Graph) Has(v, u uint32) bool { return containsNode(g.roots[v], u) }

// ForEachNeighbor applies f to v's out-neighbors in ascending order.
func (g *Graph) ForEachNeighbor(v uint32, f func(u uint32)) {
	walkUntil(g.roots[v], func(u uint32) bool { f(u); return true })
}

// NeighborBlocks yields v's neighbors leaf by leaf in ascending order
// (engine.NeighborBlocker); each block is one leaf's sorted element array.
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
		if gl >= 32 && gl*4 >= sizeOf(g.roots[v]) {
			d = g.applyGroupBulk(v, ks[gr.lo:gr.hi], ins)
		} else {
			root := g.roots[v]
			for i := gr.lo; i < gr.hi; i++ {
				u := uint32(ks[i])
				var ok bool
				if ins {
					root, ok = insertNode(root, u)
					if ok {
						d++
					}
				} else {
					root, ok = removeNode(root, u)
					if ok {
						d--
					}
				}
			}
			g.roots[v] = root
		}
		delta.Add(d)
	})
	g.m.Add(uint64(delta.Load()))
}

// applyGroupBulk merges (or subtracts) a sorted group and rebuilds the
// vertex's tree, PaC-tree's multi-insert analogue.
func (g *Graph) applyGroupBulk(v uint32, ks []uint64, ins bool) int64 {
	oldSize := sizeOf(g.roots[v])
	old := make([]uint32, 0, oldSize+len(ks))
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
	g.roots[v] = buildTree(merged)
	return int64(len(merged)) - int64(len(old))
}

// MemoryUsage returns estimated resident bytes across all vertex trees.
func (g *Graph) MemoryUsage() uint64 {
	total := uint64(len(g.roots)) * 8
	for _, r := range g.roots {
		total += memoryOf(r)
	}
	return total
}
