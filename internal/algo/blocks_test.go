package algo

import (
	"math"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// buildCoreCfg loads a symmetrized power-law graph into the native
// engine (a NeighborBlocker) under cfg.
func buildCoreCfg(n uint32, scale uint, seed uint64, edges int, cfg core.Config) *core.Graph {
	es := gen.Symmetrize(gen.NewRMatPaper(scale, seed).Edges(edges))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g := core.New(n, cfg)
	g.InsertBatch(src, dst)
	return g
}

// buildCore is buildCoreCfg with small thresholds so adjacency spans
// inline, array, RIA, and HITree storage even on modest inputs.
func buildCore(n uint32, scale uint, seed uint64, edges int) *core.Graph {
	return buildCoreCfg(n, scale, seed, edges, core.Config{Workers: 2, ArrayMax: 8, M: 64})
}

// refCopy returns a callback-only copy of g: refgraph.Graph has no
// NeighborBlocks, so kernels run on it through engine.BlockCursor's
// materializing fallback.
func refCopy(g *core.Graph) *refgraph.Graph {
	r := refgraph.New(g.NumVertices())
	for v := uint32(0); v < g.NumVertices(); v++ {
		g.ForEachNeighbor(v, func(u uint32) { r.Insert(v, u) })
	}
	return r
}

// TestKernelsMatchNativeAndFallback runs every kernel on the native engine
// (blocks sliced out of inline, array, RIA and HITree storage) and on a
// callback-only copy of the same edges (the cursor's one-block-per-vertex
// fallback, the path of Readers from outside the repository), and requires
// the same results. Both sides run the same kernel body; only the block
// source differs.
func TestKernelsMatchNativeAndFallback(t *testing.T) {
	g := buildCore(512, 9, 77, 4000)
	r := refCopy(g)
	if r.NumEdges() != g.NumEdges() {
		t.Fatalf("copy holds %d edges, engine %d", r.NumEdges(), g.NumEdges())
	}
	if _, ok := any(r).(engine.NeighborBlocker); ok {
		t.Fatal("refgraph grew a native block path; the fallback side is no longer exercised")
	}

	for _, p := range []int{1, 4} {
		bfsN, bfsF := BFS(g, 0, p), BFS(r, 0, p)
		lvlN, lvlF := BFSLevels(g, 0, p), BFSLevels(r, 0, p)
		prN, prF := PageRank(g, 10, p), PageRank(r, 10, p)
		ccN, ccF := CC(g, p), CC(r, p)
		bcN, bcF := BC(g, 0, p), BC(r, 0, p)
		tcN, tcF := TriangleCount(g, p).Triangles, TriangleCount(r, p).Triangles
		kcN, kcF := KCore(g, p), KCore(r, p)

		for v := range lvlN {
			if lvlN[v] != lvlF[v] {
				t.Fatalf("p=%d: BFS level differs at %d: %d vs %d", p, v, lvlN[v], lvlF[v])
			}
			// Parent choice can differ between runs (CAS races), but
			// reachability cannot.
			if (bfsN[v] == NoParent) != (bfsF[v] == NoParent) {
				t.Fatalf("p=%d: BFS reachability differs at %d", p, v)
			}
			if ccN[v] != ccF[v] {
				t.Fatalf("p=%d: CC differs at %d", p, v)
			}
			if kcN[v] != kcF[v] {
				t.Fatalf("p=%d: KCore differs at %d", p, v)
			}
			if math.Abs(prN[v]-prF[v]) > 1e-12 {
				t.Fatalf("p=%d: PageRank differs at %d: %g vs %g", p, v, prN[v], prF[v])
			}
			if math.Abs(bcN[v]-bcF[v]) > 1e-9 {
				t.Fatalf("p=%d: BC differs at %d: %g vs %g", p, v, bcN[v], bcF[v])
			}
		}
		if tcN != tcF {
			t.Fatalf("p=%d: TC differs: %d vs %d", p, tcN, tcF)
		}
	}
}

// TestCollectFrontier checks the parallel frontier rebuild against the
// sequential scan it replaces, including sizes straddling the sequential
// threshold and dense/sparse flag patterns.
func TestCollectFrontier(t *testing.T) {
	for _, n := range []int{0, 1, 100, collectSeqThreshold - 1, collectSeqThreshold * 8} {
		for _, p := range []int{1, 3, 8} {
			next := make([]bool, n)
			var want []uint32
			for v := 0; v < n; v++ {
				if v%7 == 0 || v%1000 < 3 {
					next[v] = true
					want = append(want, uint32(v))
				}
			}
			bufs := frontierBufs(p)
			got := collectFrontier(nil, next, bufs, p)
			if len(got) != len(want) {
				t.Fatalf("n=%d p=%d: %d vertices collected, want %d", n, p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: diverges at %d: %d want %d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}
