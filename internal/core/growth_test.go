package core

import (
	"strings"
	"testing"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func TestEnsureVerticesGrows(t *testing.T) {
	g := New(4, Config{})
	g.InsertBatch([]uint32{1}, []uint32{2})
	g.EnsureVertices(100)
	if g.NumVertices() != 100 {
		t.Fatalf("NumVertices=%d", g.NumVertices())
	}
	// Existing data survives the growth.
	if !g.Has(1, 2) || g.Degree(1) != 1 {
		t.Fatal("growth lost existing edges")
	}
	// New vertex slots are usable.
	g.InsertBatch([]uint32{99}, []uint32{50})
	if !g.Has(99, 50) {
		t.Fatal("new slot unusable")
	}
	// Shrinking requests are no-ops.
	g.EnsureVertices(10)
	if g.NumVertices() != 100 {
		t.Fatal("EnsureVertices shrank the graph")
	}
}

func TestOutOfRangePanicsWithClearMessage(t *testing.T) {
	for _, shards := range []int{1, 2} { // 2: the scattered path checks up front
		g := New(4, Config{Shards: shards})
		for _, edge := range [][2]uint32{{7, 1}, {1, 7}} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("shards=%d edge %v: expected panic", shards, edge)
					}
					if !strings.Contains(r.(string), "EnsureVertices") {
						t.Fatalf("shards=%d edge %v: uninformative panic %v", shards, edge, r)
					}
				}()
				g.InsertBatch([]uint32{edge[0]}, []uint32{edge[1]})
			}()
		}
	}
}

func TestOutOfRangePanicMessageCoordinates(t *testing.T) {
	// The panic must name the offending edge and the valid range so a user
	// can locate the bad input without a debugger.
	g := New(4, Config{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		if !strings.Contains(msg, "edge (7,1)") || !strings.Contains(msg, "[0,4)") {
			t.Fatalf("panic omits edge coordinates or range: %q", msg)
		}
	}()
	g.InsertBatch([]uint32{3, 7}, []uint32{0, 1})
}

func TestInsertIntoGrownRange(t *testing.T) {
	// EnsureVertices followed by a batch that lands entirely in the newly
	// grown slots, including the boundary vertex n-1, and edges that span
	// the old/new boundary.
	g := New(4, Config{})
	g.InsertBatch([]uint32{0, 1}, []uint32{1, 2})
	g.EnsureVertices(64)

	src := []uint32{63, 40, 3, 63}
	dst := []uint32{40, 50, 63, 3}
	g.InsertBatch(src, dst)
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges=%d want 6", g.NumEdges())
	}
	for i := range src {
		if !g.Has(src[i], dst[i]) {
			t.Fatalf("missing grown-range edge (%d,%d)", src[i], dst[i])
		}
	}
	if g.Degree(63) != 2 || g.Degree(40) != 1 {
		t.Fatalf("grown-range degrees off: deg(63)=%d deg(40)=%d",
			g.Degree(63), g.Degree(40))
	}
	// Old edges are untouched and deletes work across the boundary.
	if !g.Has(0, 1) || !g.Has(1, 2) {
		t.Fatal("pre-growth edges lost")
	}
	g.DeleteBatch([]uint32{63, 63}, []uint32{40, 3})
	if g.NumEdges() != 4 || g.Has(63, 40) || g.Has(63, 3) {
		t.Fatalf("delete in grown range failed: NumEdges=%d", g.NumEdges())
	}
	// Vertex 64 is still out of range after growing to 64.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for vertex == n")
			}
		}()
		g.InsertBatch([]uint32{64}, []uint32{0})
	}()
}

func TestGrowingStreamScenario(t *testing.T) {
	// Model the Table 4 pattern: the vertex set grows while edges stream.
	g := New(0, Config{})
	ref := refgraph.New(1 << 12)
	ts := gen.NewTemporalStream(1<<12, 1.2, 3)
	es := ts.Edges(20000)
	for lo := 0; lo < len(es); lo += 500 {
		hi := lo + 500
		if hi > len(es) {
			hi = len(es)
		}
		chunk := es[lo:hi]
		g.EnsureVertices(gen.MaxVertex(chunk))
		src := make([]uint32, len(chunk))
		dst := make([]uint32, len(chunk))
		for i, e := range chunk {
			src[i], dst[i] = e.Src, e.Dst
			ref.Insert(e.Src, e.Dst)
		}
		g.InsertBatch(src, dst)
	}
	if g.NumEdges() != ref.NumEdges() {
		t.Fatalf("NumEdges %d want %d", g.NumEdges(), ref.NumEdges())
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) != ref.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}
