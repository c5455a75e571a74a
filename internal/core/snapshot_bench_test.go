package core

import (
	"testing"

	"lsgraph/internal/gen"
)

// benchGraph builds a loaded graph for the snapshot benchmarks.
func benchGraph(b *testing.B, workers int) *Graph {
	b.Helper()
	g := New(1<<12, Config{Workers: workers})
	es := gen.Symmetrize(gen.NewRMatPaper(12, 9).Edges(60_000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)
	return g
}

// BenchmarkSnapshot is the allocate-every-call baseline: what the Store's
// republish loop would pay without the reuse path.
func BenchmarkSnapshot(b *testing.B) {
	g := benchGraph(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Snapshot()
	}
}

// BenchmarkSnapshotInto is the steady-state republish path: flattening
// into a warm snapshot. Compare allocs/op against BenchmarkSnapshot — the
// offs/adj allocations disappear entirely.
func BenchmarkSnapshotInto(b *testing.B) {
	g := benchGraph(b, 0)
	s := g.Snapshot() // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = g.SnapshotInto(s)
	}
}

// BenchmarkShardPublishAfterBatch is one serve-style shard publish: a
// shard of about 1M edges takes one ~2,700-edge Zipf batch, then is
// flattened into a warm recycled snapshot (double buffering, as serve's
// writers recycle drained epochs). Batches alternate insert and delete so
// the shard stays the same size; only the publish is timed.
func BenchmarkShardPublishAfterBatch(b *testing.B) {
	const n = 1 << 17
	g := New(n, Config{Workers: 1})
	es := gen.Symmetrize(gen.NewRMatPaper(17, 3).Edges(540_000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)
	z := gen.NewZipf(n, 1.2, 5)
	batches := make([]SubBatch, 64)
	for i := range batches {
		batches[i].Src, batches[i].Dst = z.Batch(2700)
	}
	sh := g.Shard(0)
	cur, spare := sh.SnapshotInto(nil), sh.SnapshotInto(nil) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bt := batches[(i/2)%len(batches)]
		sh.Apply(Op(i%2), bt.Src, bt.Dst) // alternate OpInsert, OpDelete
		b.StartTimer()
		cur, spare = sh.SnapshotInto(spare), cur
	}
	b.ReportMetric(float64(sh.NumEdges()), "edges")
}
