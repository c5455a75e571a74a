package core

import (
	"strings"
	"sync"
	"testing"

	"lsgraph/internal/batch"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func TestBatchLengthMismatchPanics(t *testing.T) {
	g := New(16, Config{})
	for _, tc := range []struct {
		op string
		f  func()
	}{
		{"InsertBatch", func() { g.InsertBatch([]uint32{1, 2}, []uint32{3}) }},
		{"DeleteBatch", func() { g.DeleteBatch([]uint32{1}, []uint32{2, 3}) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic on mismatched lengths", tc.op)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("%s: panic value %T, want string", tc.op, r)
				}
				for _, want := range []string{tc.op, "src/dst length mismatch"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("%s: panic %q missing %q", tc.op, msg, want)
					}
				}
			}()
			tc.f()
		}()
	}
}

// TestOneVertexOneWorker is the scheduler regression test of the satellite
// task: under the skew-aware largest-first scheduler every group — and
// therefore every source vertex, since prepareBatch emits one group per
// vertex — must be applied by exactly one worker, exactly once.
func TestOneVertexOneWorker(t *testing.T) {
	const nv = 1 << 12
	g := New(nv, Config{Workers: 8})
	rm := gen.NewRMatPaper(12, 7)
	es := rm.Edges(200000) // far above batch.ParallelMin and the parallel-sort floor
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	_, groups := g.prepareBatch(&g.shards[0], src, dst, g.workers())
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].V <= groups[i-1].V {
			t.Fatalf("groups not strictly ascending by vertex: %d then %d",
				groups[i-1].V, groups[i].V)
		}
	}

	var mu sync.Mutex
	applied := make(map[int]int)         // group index -> times applied
	vertexWorker := make(map[uint32]int) // vertex -> applying worker
	forEachGroupBySize(&g.shards[0], groups, g.workers(), func(w, gi int) {
		mu.Lock()
		defer mu.Unlock()
		applied[gi]++
		v := groups[gi].V
		if prev, seen := vertexWorker[v]; seen && prev != w {
			t.Errorf("vertex %d touched by workers %d and %d", v, prev, w)
		}
		vertexWorker[v] = w
	})
	if len(applied) != len(groups) {
		t.Fatalf("applied %d of %d groups", len(applied), len(groups))
	}
	for gi, c := range applied {
		if c != 1 {
			t.Fatalf("group %d applied %d times", gi, c)
		}
	}
	workers := map[int]bool{}
	for _, w := range vertexWorker {
		workers[w] = true
	}
	if len(workers) < 2 {
		t.Logf("note: only %d worker(s) made claims (single-core machine?)", len(workers))
	}
}

// TestParallelPrepareLargeBatchMatchesOracle pushes batches big enough to
// engage every parallel stage (pack, MSD sort, split dedup, dynamic apply)
// and checks the final graph against the reference implementation and a
// single-worker engine.
func TestParallelPrepareLargeBatchMatchesOracle(t *testing.T) {
	const nv = 1 << 13
	rm := gen.NewRMatPaper(13, 99)
	g1 := New(nv, Config{Workers: 1})
	g8 := New(nv, Config{Workers: 8})
	ref := refgraph.New(nv)
	for round := 0; round < 3; round++ {
		es := rm.Edges(120000)
		src := make([]uint32, len(es))
		dst := make([]uint32, len(es))
		for i, e := range es {
			src[i], dst[i] = e.Src, e.Dst
			ref.Insert(e.Src, e.Dst)
		}
		g1.InsertBatch(src, dst)
		g8.InsertBatch(src, dst)

		// Delete a large slice of what was just inserted, plus misses.
		del := es[:len(es)/2]
		dsrc := make([]uint32, 0, len(del)+100)
		ddst := make([]uint32, 0, len(del)+100)
		for _, e := range del {
			dsrc = append(dsrc, e.Src)
			ddst = append(ddst, e.Dst)
			ref.Delete(e.Src, e.Dst)
		}
		g1.DeleteBatch(dsrc, ddst)
		g8.DeleteBatch(dsrc, ddst)
	}
	checkAgainstOracle(t, g8, ref)
	checkAgainstOracle(t, g1, ref)
}

// TestPackKeysOutOfRangeParallel ensures the bounds panic survives the
// parallel pack: it must surface on the caller's goroutine with the legacy
// message even when the bad edge sits deep inside a large batch.
func TestPackKeysOutOfRangeParallel(t *testing.T) {
	const nv = 64
	g := New(nv, Config{Workers: 8})
	n := 3 * batch.ParallelMin
	src := make([]uint32, n)
	dst := make([]uint32, n)
	for i := range src {
		src[i] = uint32(i % nv)
		dst[i] = uint32((i * 7) % nv)
	}
	src[n-3], dst[n-3] = 9, 777 // out of range near the tail
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic for out-of-range edge")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"edge (9,777)", "[0,64)", "EnsureVertices"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	g.InsertBatch(src, dst)
}
