package core

import (
	"math/rand"
	"testing"

	"lsgraph/internal/batch"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func TestShardOfCoversVertexSpace(t *testing.T) {
	for _, tc := range []struct{ n, s uint32 }{
		{16, 1}, {16, 4}, {17, 4}, {3, 4}, {1, 8}, {0, 4}, {1000, 7},
	} {
		g := New(tc.n, Config{Shards: int(tc.s)})
		if got := g.NumShards(); got != int(tc.s) {
			t.Fatalf("n=%d S=%d: NumShards=%d", tc.n, tc.s, got)
		}
		// Every vertex (and IDs past the initial space) routes to a valid
		// shard; in-space IDs land inside their shard's materialized range.
		total := uint32(0)
		for i := 0; i < g.NumShards(); i++ {
			sh := g.Shard(i)
			if sh.NumVertices() == 0 {
				continue
			}
			if sh.Base() != total {
				t.Fatalf("n=%d S=%d: shard %d base %d, want contiguous", tc.n, tc.s, i, sh.Base())
			}
			total = sh.Base() + sh.NumVertices()
		}
		if tc.n > 0 && total != tc.n {
			t.Fatalf("n=%d S=%d: shards cover [0,%d)", tc.n, tc.s, total)
		}
		for v := uint32(0); v < tc.n+64; v++ {
			i := g.ShardOf(v)
			if i < 0 || i >= g.NumShards() {
				t.Fatalf("ShardOf(%d)=%d out of range", v, i)
			}
			if v < tc.n {
				sh := g.Shard(i)
				if v < sh.Base() || v-sh.Base() >= sh.NumVertices() {
					t.Fatalf("n=%d S=%d: vertex %d routed to shard %d [%d,%d)",
						tc.n, tc.s, v, i, sh.Base(), sh.Base()+sh.NumVertices())
				}
			}
		}
	}
}

func TestScatterBatchRoutesBySource(t *testing.T) {
	for _, n := range []int{0, 1, 100, 3 * batch.ParallelMin} {
		g := New(1<<12, Config{Shards: 4, Workers: 8})
		rng := rand.New(rand.NewSource(int64(n)))
		src := make([]uint32, n)
		dst := make([]uint32, n)
		var wantBound uint32
		for i := range src {
			src[i] = uint32(rng.Intn(1 << 12))
			dst[i] = uint32(rng.Intn(1 << 12))
			if src[i]+1 > wantBound {
				wantBound = src[i] + 1
			}
			if dst[i]+1 > wantBound {
				wantBound = dst[i] + 1
			}
		}
		parts, bound := g.ScatterBatch(src, dst)
		if bound != wantBound {
			t.Fatalf("n=%d: bound %d want %d", n, bound, wantBound)
		}
		if len(parts) != g.NumShards() {
			t.Fatalf("n=%d: %d parts want %d", n, len(parts), g.NumShards())
		}
		total := 0
		for i, part := range parts {
			if len(part.Src) != len(part.Dst) {
				t.Fatalf("part %d: src/dst length mismatch", i)
			}
			for j, s := range part.Src {
				if g.ShardOf(s) != i {
					t.Fatalf("part %d: src %d belongs to shard %d", i, s, g.ShardOf(s))
				}
				_ = j
			}
			total += len(part.Src)
		}
		if total != n {
			t.Fatalf("n=%d: parts hold %d edges", n, total)
		}
		// Order within a shard preserves input order: replaying parts
		// shard-by-shard with a per-shard cursor must reproduce the input.
		cursors := make([]int, len(parts))
		for i := range src {
			sh := g.ShardOf(src[i])
			j := cursors[sh]
			cursors[sh]++
			if parts[sh].Src[j] != src[i] || parts[sh].Dst[j] != dst[i] {
				t.Fatalf("edge %d: scatter reordered within shard %d", i, sh)
			}
		}
	}
}

// TestShardedGraphMatchesOracle runs identical interleaved insert/delete
// batches through engines at several shard counts and checks each against
// the reference implementation — the cross-representation equivalence
// guarantee that Shards is a pure partitioning of the same graph.
func TestShardedGraphMatchesOracle(t *testing.T) {
	const nv = 1 << 11
	rm := gen.NewRMatPaper(11, 77)
	for _, S := range []int{1, 2, 3, 4, 8} {
		g := New(nv, Config{Shards: S, Workers: 8})
		ref := refgraph.New(nv)
		for round := 0; round < 3; round++ {
			es := rm.Edges(40000)
			src := make([]uint32, len(es))
			dst := make([]uint32, len(es))
			for i, e := range es {
				src[i], dst[i] = e.Src, e.Dst
				ref.Insert(e.Src, e.Dst)
			}
			g.InsertBatch(src, dst)

			del := es[:len(es)/3]
			dsrc := make([]uint32, 0, len(del))
			ddst := make([]uint32, 0, len(del))
			for _, e := range del {
				dsrc = append(dsrc, e.Src)
				ddst = append(ddst, e.Dst)
				ref.Delete(e.Src, e.Dst)
			}
			g.DeleteBatch(dsrc, ddst)
		}
		checkAgainstOracle(t, g, ref)
	}
}

// TestComposeSnapshots checks that per-shard local snapshots composed into
// a flat CSR agree with the full-graph snapshot.
func TestComposeSnapshots(t *testing.T) {
	const nv = 1000
	rm := gen.NewRMatPaper(10, 5)
	es := rm.Edges(20000)
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src%nv, e.Dst%nv
	}
	for _, S := range []int{1, 3, 4} {
		g := New(nv, Config{Shards: S, Workers: 4})
		g.InsertBatch(src, dst)
		want := g.Snapshot()
		parts := make([]*Snapshot, S)
		bases := make([]uint32, S)
		for i := 0; i < S; i++ {
			parts[i] = g.Shard(i).SnapshotInto(nil)
			bases[i] = g.Shard(i).Base()
		}
		got := ComposeSnapshots(parts, bases, g.NumVertices())
		if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("S=%d: composed %d/%d want %d/%d", S,
				got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
		}
		for v := uint32(0); v < nv; v++ {
			gn, wn := got.Neighbors(v), want.Neighbors(v)
			if len(gn) != len(wn) {
				t.Fatalf("S=%d v=%d: %d neighbors want %d", S, v, len(gn), len(wn))
			}
			for i := range wn {
				if gn[i] != wn[i] {
					t.Fatalf("S=%d v=%d: neighbor %d got %d want %d", S, v, i, gn[i], wn[i])
				}
			}
		}
	}
}

// TestComposeSnapshotsUnevenShards covers layouts where the shard ranges
// do not divide n evenly — including bases at or beyond the logical bound
// (n=5, S=4 gives span 2 and bases 0,2,4,6) — which used to index past the
// composed offsets array in the gap-fill loop.
func TestComposeSnapshotsUnevenShards(t *testing.T) {
	for _, tc := range []struct {
		n uint32
		S int
	}{
		{5, 4}, {1, 8}, {3, 4}, {7, 3}, {9, 4}, {2, 2},
	} {
		g := New(tc.n, Config{Shards: tc.S})
		src := make([]uint32, 0, 2*tc.n)
		dst := make([]uint32, 0, 2*tc.n)
		for v := uint32(0); v < tc.n; v++ {
			src = append(src, v, v)
			dst = append(dst, (v*3+1)%tc.n, (v*7+2)%tc.n)
		}
		g.InsertBatch(src, dst)
		want := g.Snapshot()
		parts := make([]*Snapshot, tc.S)
		bases := make([]uint32, tc.S)
		for i := 0; i < tc.S; i++ {
			parts[i] = g.Shard(i).SnapshotInto(nil)
			bases[i] = g.Shard(i).Base()
		}
		got := ComposeSnapshots(parts, bases, g.NumVertices())
		if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("n=%d S=%d: composed %d/%d want %d/%d", tc.n, tc.S,
				got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
		}
		for v := uint32(0); v < tc.n; v++ {
			gn, wn := got.Neighbors(v), want.Neighbors(v)
			if len(gn) != len(wn) {
				t.Fatalf("n=%d S=%d v=%d: %d neighbors want %d", tc.n, tc.S, v, len(gn), len(wn))
			}
			for i := range wn {
				if gn[i] != wn[i] {
					t.Fatalf("n=%d S=%d v=%d: neighbor %d got %d want %d", tc.n, tc.S, v, i, gn[i], wn[i])
				}
			}
		}
	}
}

// TestScatterBatchRetainedPartAppend verifies the retention contract:
// appending to one returned part (what serve's backpressure merge does to
// queued parts) must never alter a sibling part, on both the sequential
// and the parallel scatter paths.
func TestScatterBatchRetainedPartAppend(t *testing.T) {
	for _, n := range []int{64, 3 * batch.ParallelMin} {
		g := New(1<<12, Config{Shards: 4, Workers: 8})
		rng := rand.New(rand.NewSource(int64(n)))
		src := make([]uint32, n)
		dst := make([]uint32, n)
		for i := range src {
			src[i] = uint32(rng.Intn(1 << 12))
			dst[i] = uint32(rng.Intn(1 << 12))
		}
		parts, _ := g.ScatterBatch(src, dst)
		wantSrc := make([][]uint32, len(parts))
		wantDst := make([][]uint32, len(parts))
		for i, p := range parts {
			wantSrc[i] = append([]uint32(nil), p.Src...)
			wantDst[i] = append([]uint32(nil), p.Dst...)
		}
		for i := range parts {
			parts[i].Src = append(parts[i].Src, 0xdeadbeef, 0xdeadbeef)
			parts[i].Dst = append(parts[i].Dst, 0xdeadbeef, 0xdeadbeef)
		}
		for i := range parts {
			for j := range wantSrc[i] {
				if parts[i].Src[j] != wantSrc[i][j] || parts[i].Dst[j] != wantDst[i][j] {
					t.Fatalf("n=%d: append to a sibling corrupted part %d at %d", n, i, j)
				}
			}
		}
	}
}

// TestShardedGrowth exercises EnsureVertices and per-shard growth: edges
// stream over an ever-growing ID range at S=4 and the engine keeps
// matching the oracle.
func TestShardedGrowth(t *testing.T) {
	g := New(8, Config{Shards: 4})
	ref := refgraph.New(8)
	bound := uint32(8)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 20; round++ {
		bound += uint32(rng.Intn(50))
		g.EnsureVertices(bound)
		ref.EnsureVertices(bound)
		src := make([]uint32, 200)
		dst := make([]uint32, 200)
		for i := range src {
			src[i] = uint32(rng.Intn(int(bound)))
			dst[i] = uint32(rng.Intn(int(bound)))
			ref.Insert(src[i], dst[i])
		}
		g.InsertBatch(src, dst)
	}
	checkAgainstOracle(t, g, ref)
}
