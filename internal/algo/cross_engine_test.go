package algo

import (
	"math"
	"testing"

	"lsgraph/internal/aspen"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
	"lsgraph/internal/pactree"
	"lsgraph/internal/sortledton"
	"lsgraph/internal/terrace"
)

// TestAnalyticsIdenticalAcrossEngines loads the same symmetrized graph
// into all five engines and requires every kernel to produce identical
// results — analytics correctness must not depend on the storage layer.
func TestAnalyticsIdenticalAcrossEngines(t *testing.T) {
	const n = 512
	es := gen.Symmetrize(gen.NewRMatPaper(9, 31).Edges(4000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	engines := []engine.Engine{
		core.New(n, core.Config{Workers: 2}),
		terrace.New(n, 2),
		aspen.New(n, 2),
		pactree.New(n, 2),
		sortledton.New(n, 2),
	}
	for _, e := range engines {
		e.InsertBatch(src, dst)
	}
	ref := engines[0]

	refDepth := BFSLevels(ref, 0, 2)
	refPR := PageRank(ref, 10, 2)
	refCC := CC(ref, 2)
	refBC := BC(ref, 0, 2)
	refTC := TriangleCount(ref, 2).Triangles
	refCore := KCore(ref, 2)

	for _, e := range engines[1:] {
		depth := BFSLevels(e, 0, 2)
		for v := range depth {
			if depth[v] != refDepth[v] {
				t.Fatalf("%s: BFS depth differs at %d", e.Name(), v)
			}
		}
		pr := PageRank(e, 10, 2)
		for v := range pr {
			if math.Abs(pr[v]-refPR[v]) > 1e-12 {
				t.Fatalf("%s: PageRank differs at %d: %g vs %g", e.Name(), v, pr[v], refPR[v])
			}
		}
		cc := CC(e, 2)
		for v := range cc {
			if cc[v] != refCC[v] {
				t.Fatalf("%s: CC differs at %d", e.Name(), v)
			}
		}
		bc := BC(e, 0, 2)
		for v := range bc {
			if math.Abs(bc[v]-refBC[v]) > 1e-9*(1+math.Abs(refBC[v])) {
				t.Fatalf("%s: BC differs at %d: %g vs %g", e.Name(), v, bc[v], refBC[v])
			}
		}
		if tc := TriangleCount(e, 2).Triangles; tc != refTC {
			t.Fatalf("%s: TC %d vs %d", e.Name(), tc, refTC)
		}
		kc := KCore(e, 2)
		for v := range kc {
			if kc[v] != refCore[v] {
				t.Fatalf("%s: k-core differs at %d", e.Name(), v)
			}
		}
	}
}
