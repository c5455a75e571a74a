package core

import (
	"fmt"
	"testing"

	"lsgraph/internal/gen"
	"lsgraph/internal/parallel"
)

// benchBatch builds one rMat update batch sized like the paper's streaming
// batches.
func benchBatch(scale uint, m int) (src, dst []uint32, nv uint32) {
	rm := gen.NewRMatPaper(scale, 123)
	es := rm.Edges(m)
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return src, dst, 1 << scale
}

// BenchmarkInsertBatchPrepare measures the prepare pipeline (pack + sort +
// dedup/group) split by phase across worker counts — the acceptance
// benchmark for the parallel prepare work. phase=all is the full pipeline
// as InsertBatch runs it.
func BenchmarkInsertBatchPrepare(b *testing.B) {
	const m = 1 << 18
	src, dst, nv := benchBatch(17, m)
	for _, p := range []int{1, 2, 4, 8} {
		g := New(nv, Config{Workers: p})
		b.Run(fmt.Sprintf("phase=all/p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.prepareBatch(&g.shards[0], src, dst, p)
			}
		})
		b.Run(fmt.Sprintf("phase=pack/p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.shards[0].prep.Pack(src, dst, nv, p)
			}
		})
		b.Run(fmt.Sprintf("phase=sort/p=%d", p), func(b *testing.B) {
			packed := g.shards[0].prep.Pack(src, dst, nv, p)
			base := append([]uint64(nil), packed...)
			ks := make([]uint64, len(base))
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ks, base)
				parallel.SortUint64(ks, p)
			}
		})
		b.Run(fmt.Sprintf("phase=group/p=%d", p), func(b *testing.B) {
			packed := g.shards[0].prep.Pack(src, dst, nv, p)
			sorted := append([]uint64(nil), packed...)
			parallel.SortUint64(sorted, p)
			ks := make([]uint64, len(sorted))
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ks, sorted)
				g.shards[0].prep.Group(ks, p, nil)
			}
		})
	}
}

// BenchmarkInsertBatchSteadyState measures full InsertBatch calls against a
// warm graph whose batches repeat the same edge population, so the prepare
// arenas and per-worker apply arenas are at steady-state size. allocs/op is
// the headline number: the scratch-reuse work drives it toward zero.
func BenchmarkInsertBatchSteadyState(b *testing.B) {
	const m = 1 << 16
	src, dst, nv := benchBatch(15, m)
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			g := New(nv, Config{Workers: p})
			g.InsertBatch(src, dst) // warm: edges present, arenas grown
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.InsertBatch(src, dst)
			}
		})
	}
}

// BenchmarkInsertBatchCold measures end-to-end ingest of fresh batches into
// a growing graph — the Figure 12 shape — including apply-path structural
// work.
func BenchmarkInsertBatchCold(b *testing.B) {
	const m = 1 << 16
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rm := gen.NewRMatPaper(17, 9)
			g := New(1<<17, Config{Workers: p})
			src := make([]uint32, m)
			dst := make([]uint32, m)
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				es := rm.Edges(m)
				for j, e := range es {
					src[j], dst[j] = e.Src, e.Dst
				}
				b.StartTimer()
				g.InsertBatch(src, dst)
			}
		})
	}
}
