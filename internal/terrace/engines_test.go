// Package terrace's test file doubles as the cross-engine conformance
// suite: after identical random batch schedules, every engine (Terrace,
// Aspen, PaC-tree, Sortledton, LSGraph) must report identical neighbor
// sequences, through both ForEachNeighbor and NeighborBlocks, degrees, and
// edge counts, all matching the oracle.
package terrace_test

import (
	"sync"
	"testing"

	"lsgraph/internal/aspen"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
	"lsgraph/internal/pactree"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/sortledton"
	"lsgraph/internal/terrace"
)

func engines(n uint32, workers int) []engine.Engine {
	return []engine.Engine{
		core.New(n, core.Config{Workers: workers}),
		terrace.New(n, workers),
		aspen.New(n, workers),
		pactree.New(n, workers),
		sortledton.New(n, workers),
	}
}

func checkEngine(t *testing.T, e engine.Engine, ref *refgraph.Graph) {
	t.Helper()
	if e.NumEdges() != ref.NumEdges() {
		t.Fatalf("%s: NumEdges %d want %d", e.Name(), e.NumEdges(), ref.NumEdges())
	}
	for v := uint32(0); v < ref.NumVertices(); v++ {
		if e.Degree(v) != ref.Degree(v) {
			t.Fatalf("%s: Degree(%d)=%d want %d", e.Name(), v, e.Degree(v), ref.Degree(v))
		}
		want := ref.Neighbors(v)
		got := engine.Neighbors(e, v)
		if len(got) != len(want) {
			t.Fatalf("%s: vertex %d has %d neighbors, want %d", e.Name(), v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: vertex %d neighbor %d = %d, want %d",
					e.Name(), v, i, got[i], want[i])
			}
		}
		// The block read path must re-segment the per-edge traversal
		// exactly: non-empty blocks whose concatenation equals want.
		i := 0
		e.NeighborBlocks(v, func(bs []uint32) bool {
			if len(bs) == 0 {
				t.Fatalf("%s: vertex %d yielded an empty block", e.Name(), v)
			}
			for _, u := range bs {
				if i >= len(want) || want[i] != u {
					t.Fatalf("%s: vertex %d block path diverges at element %d", e.Name(), v, i)
				}
				i++
			}
			return true
		})
		if i != len(want) {
			t.Fatalf("%s: vertex %d block path yielded %d of %d neighbors", e.Name(), v, i, len(want))
		}
	}
}

func split(es []gen.Edge) (src, dst []uint32) {
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return
}

func TestAllEnginesMatchOracleOnBatches(t *testing.T) {
	const n = 1 << 10
	rm := gen.NewRMatPaper(10, 99)
	ref := refgraph.New(n)
	es := engines(n, 4)
	for round := 0; round < 6; round++ {
		batch := rm.Edges(4000)
		src, dst := split(batch)
		for _, e := range es {
			e.InsertBatch(src, dst)
		}
		for _, e := range batch {
			ref.Insert(e.Src, e.Dst)
		}
		// Delete a slice of the batch again.
		dsrc, ddst := split(batch[:1500])
		for _, e := range es {
			e.DeleteBatch(dsrc, ddst)
		}
		for _, e := range batch[:1500] {
			ref.Delete(e.Src, e.Dst)
		}
	}
	for _, e := range es {
		checkEngine(t, e, ref)
	}
}

func TestAllEnginesSingleEdgeOps(t *testing.T) {
	const n = 64
	ref := refgraph.New(n)
	es := engines(n, 1)
	rm := gen.NewRMatPaper(6, 5)
	for i := 0; i < 3000; i++ {
		e := rm.Edge()
		if e.Src == e.Dst {
			continue
		}
		if i%3 == 2 {
			for _, eng := range es {
				eng.DeleteBatch([]uint32{e.Src}, []uint32{e.Dst})
			}
			ref.Delete(e.Src, e.Dst)
		} else {
			for _, eng := range es {
				eng.InsertBatch([]uint32{e.Src}, []uint32{e.Dst})
			}
			ref.Insert(e.Src, e.Dst)
		}
	}
	for _, e := range es {
		checkEngine(t, e, ref)
	}
}

func TestHighDegreeVertexAllEngines(t *testing.T) {
	// One hub vertex crossing every structural threshold (inline → PMA →
	// B-tree for Terrace; inline → array → RIA → HITree for LSGraph).
	const n = 8192
	ref := refgraph.New(n)
	es := engines(n, 2)
	var src, dst []uint32
	for u := uint32(0); u < 3000; u++ {
		if u == 1 {
			continue
		}
		src = append(src, 1)
		dst = append(dst, u*2+1)
	}
	for _, e := range es {
		e.InsertBatch(src, dst)
	}
	for i := range src {
		ref.Insert(src[i], dst[i])
	}
	// Now delete every fourth edge.
	var s2, d2 []uint32
	for i := 0; i < len(src); i += 4 {
		s2 = append(s2, src[i])
		d2 = append(d2, dst[i])
		ref.Delete(src[i], dst[i])
	}
	for _, e := range es {
		e.DeleteBatch(s2, d2)
	}
	for _, e := range es {
		checkEngine(t, e, ref)
	}
}

func TestTerraceInstrumentation(t *testing.T) {
	g := terrace.New(256, 1)
	g.Instrument = true
	rm := gen.NewRMatPaper(8, 3)
	load := rm.Edges(20000)
	src, dst := split(load)
	g.InsertBatch(src, dst) // initial load takes the bulk path
	batch := rm.Edges(20000)
	src, dst = split(batch)
	g.InsertBatch(src, dst) // second batch exercises the instrumented path
	if g.Stats.UpdateNanos.Load() == 0 {
		t.Fatal("update timer did not advance")
	}
	if g.Stats.PMANanos.Load() == 0 {
		t.Fatal("PMA timer did not advance")
	}
	st := g.PMAStats()
	if st.SearchProbes == 0 || st.Moved == 0 {
		t.Fatalf("PMA stats did not advance: %+v", st)
	}
}

func TestEngineMemoryOrdering(t *testing.T) {
	// Table 3's qualitative shape: Terrace's loose-density PMA uses more
	// memory than LSGraph on the same graph.
	const n = 1 << 11
	rm := gen.NewRMatPaper(11, 7)
	batch := rm.Edges(150000)
	src, dst := split(batch)
	ls := core.New(n, core.Config{Workers: 4})
	tr := terrace.New(n, 4)
	ls.InsertBatch(src, dst)
	tr.InsertBatch(src, dst)
	if tr.MemoryUsage() <= ls.MemoryUsage() {
		t.Fatalf("expected Terrace (%d B) above LSGraph (%d B)",
			tr.MemoryUsage(), ls.MemoryUsage())
	}
}

// terraceMixed returns a Terrace graph whose vertex 1 keeps its overflow in
// the shared PMA (several decode chunks long), vertex 2 in a B-tree, and
// vertices 3.. inline only, plus the oracle holding the same edges.
func terraceMixed(t *testing.T) (*terrace.Graph, *refgraph.Graph) {
	t.Helper()
	const n = 4096
	g := terrace.New(n, 2)
	ref := refgraph.New(n)
	var src, dst []uint32
	add := func(v, u uint32) {
		src, dst = append(src, v), append(dst, u)
		ref.Insert(v, u)
	}
	for u := uint32(0); u < 900; u++ {
		add(1, 3*u+5)
	}
	for u := uint32(0); u < 3000; u++ {
		add(2, u+7)
	}
	for v := uint32(3); v < 200; v++ {
		add(v, v+1)
		add(v, v+9)
	}
	g.InsertBatch(src, dst)
	return g, ref
}

// TestTerraceBlocksEarlyStop stops the block walk of inline, PMA and
// B-tree vertices at several elements, including ones deep in the PMA run
// past its first decode chunk: the walk must end at the block holding the
// stop element and never call yield again.
func TestTerraceBlocksEarlyStop(t *testing.T) {
	g, ref := terraceMixed(t)
	for _, v := range []uint32{1, 2, 3} {
		deg := int(ref.Degree(v))
		for _, k := range []int{0, 12, 13, 300, 700, deg - 1} {
			if k >= deg {
				continue
			}
			seen, stopped := 0, false
			g.NeighborBlocks(v, func(bs []uint32) bool {
				if stopped {
					t.Fatalf("vertex %d stop at %d: yield called after returning false", v, k)
				}
				if seen+len(bs) > k {
					if bs[k-seen] != ref.Neighbors(v)[k] {
						t.Fatalf("vertex %d: element %d is %d, want %d", v, k, bs[k-seen], ref.Neighbors(v)[k])
					}
					stopped = true
					return false
				}
				seen += len(bs)
				return true
			})
			if !stopped {
				t.Fatalf("vertex %d: walk ended before element %d of %d", v, k, deg)
			}
		}
	}
}

// TestTerraceBlocksConcurrent reads every vertex's blocks from several
// goroutines at once, as parallel kernels do: each reader decodes the PMA
// into its own pooled scratch, so every walk must still match the oracle.
func TestTerraceBlocksConcurrent(t *testing.T) {
	g, ref := terraceMixed(t)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint32(0); v < 256; v++ {
				want := ref.Neighbors(v)
				i := 0
				g.NeighborBlocks(v, func(bs []uint32) bool {
					for _, u := range bs {
						if i >= len(want) || want[i] != u {
							i = -1
							return false
						}
						i++
					}
					return true
				})
				if i != len(want) {
					t.Errorf("vertex %d: concurrent block walk diverged from the oracle", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTerraceBlocksReuseScratch checks that walking a PMA vertex's blocks
// reuses pooled decode scratch instead of allocating it on every call.
func TestTerraceBlocksReuseScratch(t *testing.T) {
	g, _ := terraceMixed(t)
	yield := func([]uint32) bool { return true }
	if a := testing.AllocsPerRun(100, func() { g.NeighborBlocks(1, yield) }); a != 0 {
		t.Fatalf("NeighborBlocks on a PMA vertex allocates %v times per call", a)
	}
}
