package sortledton

import (
	"testing"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func split(es []gen.Edge) (src, dst []uint32) {
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return
}

func TestMatchesOracle(t *testing.T) {
	const n = 1 << 10
	g := New(n, 2)
	ref := refgraph.New(n)
	rm := gen.NewRMatPaper(10, 77)
	for round := 0; round < 6; round++ {
		es := rm.Edges(4000)
		src, dst := split(es)
		g.InsertBatch(src, dst)
		for _, e := range es {
			ref.Insert(e.Src, e.Dst)
		}
		ds, dd := split(es[:1500])
		g.DeleteBatch(ds, dd)
		for _, e := range es[:1500] {
			ref.Delete(e.Src, e.Dst)
		}
	}
	if g.NumEdges() != ref.NumEdges() {
		t.Fatalf("NumEdges %d want %d", g.NumEdges(), ref.NumEdges())
	}
	for v := uint32(0); v < n; v++ {
		if g.Degree(v) != ref.Degree(v) {
			t.Fatalf("Degree(%d)", v)
		}
		want := ref.Neighbors(v)
		var got []uint32
		g.ForEachNeighbor(v, func(u uint32) { got = append(got, u) })
		if len(got) != len(want) {
			t.Fatalf("vertex %d neighbor count", v)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d neighbor %d", v, i)
			}
		}
	}
}

func TestVectorToSkipListPromotion(t *testing.T) {
	g := New(4096, 1)
	var src, dst []uint32
	for u := uint32(0); u < 1000; u++ {
		if u == 1 {
			continue
		}
		src = append(src, 1)
		dst = append(dst, u)
	}
	g.InsertBatch(src, dst)
	if g.verts[1].list == nil {
		t.Fatal("high-degree vertex should use a skip list")
	}
	if g.Degree(1) != 999 || !g.Has(1, 500) || g.Has(1, 1) {
		t.Fatal("promoted vertex wrong")
	}
	var prev int64 = -1
	g.ForEachNeighbor(1, func(u uint32) {
		if int64(u) <= prev {
			t.Fatal("unsorted after promotion")
		}
		prev = int64(u)
	})
	if g.MemoryUsage() == 0 {
		t.Fatal("memory zero")
	}
}

// TestUntilStops checks that a false yield stops NeighborBlocks on both a
// vector vertex and a skip-list vertex, mid-way through its blocks.
func TestUntilStops(t *testing.T) {
	g := New(512, 1) // covers the destinations below 500
	src := []uint32{3, 3, 3}
	dst := []uint32{10, 20, 30}
	for u := uint32(100); u < 500; u++ {
		src, dst = append(src, 4), append(dst, u)
	}
	g.InsertBatch(src, dst)
	for _, tc := range []struct{ v, stop, want uint32 }{{3, 20, 2}, {4, 300, 201}} {
		seen, stopped := uint32(0), false
		g.NeighborBlocks(tc.v, func(bs []uint32) bool {
			if stopped {
				t.Fatalf("vertex %d: yield called after returning false", tc.v)
			}
			for _, u := range bs {
				if seen++; u >= tc.stop {
					stopped = true
					return false
				}
			}
			return true
		})
		if seen != tc.want {
			t.Fatalf("vertex %d: Until visited %d, want %d", tc.v, seen, tc.want)
		}
	}
}
