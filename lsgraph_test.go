package lsgraph

import (
	"sync/atomic"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/gen"
	"lsgraph/internal/parallel"
	"lsgraph/internal/refgraph"
)

func symEdges(t *testing.T, scale uint, m int, seed uint64) []Edge {
	t.Helper()
	raw := gen.NewRMatPaper(scale, seed).Edges(m)
	sym := gen.Symmetrize(raw)
	out := make([]Edge, len(sym))
	for i, e := range sym {
		out[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}

func TestPublicAPIRoundTrip(t *testing.T) {
	es := symEdges(t, 9, 3000, 11)
	g := NewFromEdges(512, es, WithAlpha(1.2), WithM(256), WithWorkers(4))
	if g.NumVertices() != 512 {
		t.Fatal("NumVertices")
	}
	if g.NumEdges() != uint64(len(es)) {
		t.Fatalf("NumEdges=%d want %d", g.NumEdges(), len(es))
	}
	for _, e := range es[:100] {
		if !g.Has(e.Src, e.Dst) {
			t.Fatalf("missing edge %v", e)
		}
	}
	// Degree must equal neighbor count and neighbors must be sorted.
	for v := uint32(0); v < 512; v++ {
		ns := g.Neighbors(v)
		if uint32(len(ns)) != g.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("unsorted neighbors at %d", v)
			}
		}
	}
	g.DeleteEdges(es)
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges=%d after deleting all", g.NumEdges())
	}
}

func TestAlgorithmsRunViaFacade(t *testing.T) {
	es := symEdges(t, 9, 4000, 3)
	g := NewFromEdges(512, es)
	parent := BFS(g, 0)
	if parent[0] != 0 {
		t.Fatal("BFS source parent")
	}
	depth := BFSLevels(g, 0)
	if depth[0] != 0 {
		t.Fatal("BFSLevels source depth")
	}
	bc := BC(g, 0)
	if len(bc) != 512 {
		t.Fatal("BC length")
	}
	pr := PageRank(g, 5)
	var sum float64
	for _, r := range pr {
		sum += r
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("PageRank sum %g", sum)
	}
	cc := ConnectedComponents(g)
	for v, c := range cc {
		if c > uint32(v) {
			t.Fatalf("component label %d above vertex %d", c, v)
		}
	}
	tri, trav, total := TriangleCount(g)
	if tri == 0 {
		t.Fatal("expected triangles in rMat graph")
	}
	if total < trav {
		t.Fatal("TC timing inconsistent")
	}
}

func TestEdgeMapBFS(t *testing.T) {
	// A BFS built from the public EdgeMap primitive must agree with the
	// built-in BFS on every vertex's level.
	g := NewFromEdges(256, symEdges(t, 8, 1500, 9))
	depth := edgeMapLevels(g)
	want := BFSLevels(g, 0)
	for v := range want {
		if want[v] != depth[v] {
			t.Fatalf("EdgeMap BFS level differs at %d: %d vs %d", v, depth[v], want[v])
		}
	}
}

// edgeMapLevels runs a level-synchronous BFS from 0 built on EdgeMap and
// returns each vertex's depth, -1 if unreached.
func edgeMapLevels(g Reader) []int32 {
	n := g.NumVertices()
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	frontier := NewVertexSubset(n, 0)
	for lv := int32(1); !frontier.IsEmpty(); lv++ {
		frontier = EdgeMap(g, frontier,
			func(u uint32) bool { return atomic.LoadInt32(&depth[u]) == -1 },
			func(v, u uint32) bool { return atomic.CompareAndSwapInt32(&depth[u], -1, lv) })
	}
	return depth
}

// edgeMapHits maps every vertex's edges once, with a cond that filters
// out targets divisible by 3, and returns how many times each target was
// updated plus the output subset.
func edgeMapHits(g Reader) ([]int32, []uint32) {
	n := g.NumVertices()
	all := make([]uint32, n)
	for v := range all {
		all[v] = uint32(v)
	}
	hits := make([]int32, n)
	out := EdgeMap(g, NewVertexSubset(n, all...),
		func(u uint32) bool { return u%3 != 0 },
		func(v, u uint32) bool { atomic.AddInt32(&hits[u], 1); return true })
	return hits, out.Vertices()
}

// TestEdgeMapMatchesNativeAndFallback runs EdgeMap on the engine's native
// block path (inline, array, RIA and HITree storage) and on a
// callback-only copy of the same edges (one scratch block per vertex) at 1
// and 4 workers. Both must give identical BFS levels, and a map over every
// edge must update each target once per in-edge on both.
func TestEdgeMapMatchesNativeAndFallback(t *testing.T) {
	const n = 512
	es := symEdges(t, 9, 4000, 77)
	g := core.New(n, core.Config{Workers: 2, ArrayMax: 8, M: 64})
	ref := refgraph.New(n)
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
		ref.Insert(e.Src, e.Dst)
	}
	g.InsertBatch(src, dst)
	defer func(p int) { parallel.Procs = p }(parallel.Procs)
	for _, p := range []int{1, 4} {
		parallel.Procs = p
		lvN, lvF := edgeMapLevels(g), edgeMapLevels(ref)
		for v := range lvN {
			if lvN[v] != lvF[v] {
				t.Fatalf("p=%d: EdgeMap BFS level differs at %d: %d vs %d", p, v, lvN[v], lvF[v])
			}
		}
		hitsN, outN := edgeMapHits(g)
		hitsF, outF := edgeMapHits(ref)
		for u := range hitsN {
			want := int32(ref.Degree(uint32(u))) // symmetric: in-degree
			if u%3 == 0 {
				want = 0
			}
			if hitsN[u] != want || hitsF[u] != want {
				t.Fatalf("p=%d: target %d updated %d (native) / %d (fallback) times, want %d",
					p, u, hitsN[u], hitsF[u], want)
			}
		}
		if len(outN) != len(outF) {
			t.Fatalf("p=%d: output subsets hold %d vs %d vertices", p, len(outN), len(outF))
		}
		for i := range outN {
			if outN[i] != outF[i] {
				t.Fatalf("p=%d: output subsets differ at %d", p, i)
			}
		}
	}
}

func TestVertexMapAndSubset(t *testing.T) {
	s := NewVertexSubset(10, 1, 3, 5, 7)
	if s.Len() != 4 || s.IsEmpty() {
		t.Fatal("subset basics")
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Fatal("Contains")
	}
	even := VertexMap(s, func(v uint32) bool { return v%2 == 1 && v < 6 })
	if even.Len() != 3 {
		t.Fatalf("VertexMap kept %d", even.Len())
	}
}

func TestMemoryReporting(t *testing.T) {
	es := symEdges(t, 10, 20000, 5)
	g := NewFromEdges(1024, es)
	if g.MemoryUsage() == 0 || g.IndexMemory() == 0 {
		t.Fatal("memory reporting zero")
	}
	if g.IndexMemory() >= g.MemoryUsage() {
		t.Fatal("index exceeds total memory")
	}
	if g.Engine() == nil {
		t.Fatal("Engine() nil")
	}
}
