package core

import (
	"fmt"
	"slices"
	"testing"

	"lsgraph/internal/gen"
)

func TestSnapshotIsImmutableView(t *testing.T) {
	g := New(1<<10, Config{Workers: 2})
	es := gen.Symmetrize(gen.NewRMatPaper(10, 4).Edges(5000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)
	snap := g.Snapshot()
	if snap.NumVertices() != g.NumVertices() || snap.NumEdges() != g.NumEdges() {
		t.Fatal("snapshot header mismatch")
	}
	// Snapshot must agree with the live graph now...
	for v := uint32(0); v < g.NumVertices(); v++ {
		want := g.AppendNeighbors(v, nil)
		got := snap.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d neighbor mismatch", v)
			}
		}
	}
	// ...and stay frozen after the live graph changes.
	before := append([]uint32(nil), snap.Neighbors(1)...)
	edges, degree := snap.NumEdges(), snap.Degree(1)
	more := gen.Symmetrize(gen.NewRMatPaper(10, 5).Edges(3000))
	src = src[:0]
	dst = dst[:0]
	for _, e := range more {
		src = append(src, e.Src)
		dst = append(dst, e.Dst)
	}
	g.InsertBatch(src, dst)
	if snap.NumEdges() != edges || snap.Degree(1) != degree {
		t.Fatal("snapshot changed after update")
	}
	after := snap.Neighbors(1)
	for i := range before {
		if after[i] != before[i] {
			t.Fatal("snapshot contents changed after update")
		}
	}
	// A false yield stops the block walk.
	calls := 0
	snap.NeighborBlocks(1, func([]uint32) bool { calls++; return false })
	if degree > 0 && calls != 1 {
		t.Fatalf("yield called %d times after returning false", calls)
	}
}

// TestSnapshotIntoReuse checks that the reuse path produces the same view
// as a fresh Snapshot and that steady-state republishing (same-or-smaller
// graph into a warm snapshot) allocates nothing.
func TestSnapshotIntoReuse(t *testing.T) {
	g := New(1<<10, Config{Workers: 1})
	es := gen.Symmetrize(gen.NewRMatPaper(10, 7).Edges(4000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)

	want := g.Snapshot()
	reuse := g.Snapshot() // warm buffers to overwrite
	got := g.SnapshotInto(reuse)
	if got != reuse {
		t.Fatal("SnapshotInto did not return the reused snapshot")
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("reused snapshot header mismatch: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := uint32(0); v < want.NumVertices(); v++ {
		a, b := want.Neighbors(v), got.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbor mismatch", v)
			}
		}
	}

	// Steady state: flattening into warm buffers must not allocate any
	// data buffers. A fixed handful of closure headers from the
	// parallel-for plumbing is allowed; anything growing with the graph
	// (the fresh-Snapshot path allocates thousands here) is a regression.
	if allocs := testing.AllocsPerRun(10, func() { g.SnapshotInto(reuse) }); allocs > 4 {
		t.Fatalf("SnapshotInto allocated %.0f objects per run in steady state", allocs)
	}

	// SnapshotInto(nil) is Snapshot.
	fresh := g.SnapshotInto(nil)
	if fresh.NumEdges() != want.NumEdges() {
		t.Fatal("SnapshotInto(nil) mismatch")
	}
}

func TestDeleteVertex(t *testing.T) {
	g := New(64, Config{})
	// Symmetric star around 5 plus a side edge.
	var src, dst []uint32
	for _, u := range []uint32{1, 2, 3, 60} {
		src = append(src, 5, u)
		dst = append(dst, u, 5)
	}
	src = append(src, 1, 2)
	dst = append(dst, 2, 1)
	g.InsertBatch(src, dst)
	g.DeleteVertex(5)
	if g.Degree(5) != 0 {
		t.Fatalf("degree(5)=%d", g.Degree(5))
	}
	for _, u := range []uint32{1, 2, 3, 60} {
		if g.Has(u, 5) {
			t.Fatalf("reverse edge (%d,5) survived", u)
		}
	}
	if !g.Has(1, 2) || !g.Has(2, 1) || g.NumEdges() != 2 {
		t.Fatalf("side edge lost; m=%d", g.NumEdges())
	}
	// Deleting an isolated vertex is a no-op.
	g.DeleteVertex(5)
	if g.NumEdges() != 2 {
		t.Fatal("second DeleteVertex changed the graph")
	}
}

// requireShardSnapshot checks a shard snapshot, offs and adj element for
// element, against a from-scratch flatten of the shard read through the
// graph's traversal path.
func requireShardSnapshot(t *testing.T, g *Graph, i int, s *Snapshot, step string) {
	t.Helper()
	sh := g.Shard(i)
	offs, adj := s.CSR()
	wantOffs := []uint64{0}
	var wantAdj []uint32
	for v := uint32(0); v < sh.NumVertices(); v++ {
		g.ForEachNeighbor(sh.Base()+v, func(u uint32) { wantAdj = append(wantAdj, u) })
		wantOffs = append(wantOffs, uint64(len(wantAdj)))
	}
	if len(offs) != len(wantOffs) || len(adj) != len(wantAdj) {
		t.Fatalf("%s: shard %d snapshot has %d offsets/%d edges, want %d/%d",
			step, i, len(offs), len(adj), len(wantOffs), len(wantAdj))
	}
	for v := range wantOffs {
		if offs[v] != wantOffs[v] {
			t.Fatalf("%s: shard %d offs[%d]=%d, want %d", step, i, v, offs[v], wantOffs[v])
		}
	}
	for j := range wantAdj {
		if adj[j] != wantAdj[j] {
			t.Fatalf("%s: shard %d adj[%d]=%d, want %d", step, i, j, adj[j], wantAdj[j])
		}
	}
}

// TestShardIncrementalPublishMatchesFullFlatten drives a 2-shard graph
// through Zipf insert and delete batches, vertex-space growth, boundary
// moves both ways and DeleteVertex, publishing every shard after every
// step. Each publish copies the runs unchanged since the shard's previous
// snapshot from it, so it must equal a from-scratch flatten element for
// element — whether the reuse buffer is an older recycled snapshot, the
// previous snapshot itself, or nil — and must leave the previous
// snapshot, which readers may still hold, untouched.
func TestShardIncrementalPublishMatchesFullFlatten(t *testing.T) {
	const steps = 300
	// Two workers per shard, so publishes split the flatten across chunks;
	// M=64 makes the Zipf hubs HITree vertices with LIA roots.
	g := New(600, Config{Shards: 2, Workers: 4, M: 64})
	rng := gen.NewRNG(17)
	type pub struct {
		cur, spare *Snapshot
		offs       []uint64 // copy of cur at publish time
		adj        []uint32
	}
	pubs := make([]pub, g.NumShards())
	publish := func(step int, what string) {
		for i := range pubs {
			p := &pubs[i]
			var s *Snapshot
			switch step % 4 {
			case 0, 1: // double buffering: reuse the older snapshot
				s = g.Shard(i).SnapshotInto(p.spare)
				p.spare = p.cur
			case 2: // the reuse buffer is the previous snapshot itself
				s = g.Shard(i).SnapshotInto(p.cur)
			default: // a fresh buffer
				s = g.Shard(i).SnapshotInto(nil)
				p.spare = p.cur
			}
			if p.cur != nil && p.cur != s {
				offs, adj := p.cur.CSR()
				if !slices.Equal(offs, p.offs) || !slices.Equal(adj, p.adj) {
					t.Fatalf("step %d (%s): publishing shard %d modified its previous snapshot", step, what, i)
				}
			}
			requireShardSnapshot(t, g, i, s, fmt.Sprintf("step %d (%s)", step, what))
			p.cur = s
			offs, adj := s.CSR()
			p.offs, p.adj = slices.Clone(offs), slices.Clone(adj)
		}
	}
	publish(0, "empty")
	down := true
	for step := 1; step <= steps; step++ {
		n := g.NumVertices()
		var what string
		switch op := rng.Uint32n(10); {
		case op < 4:
			what = "insert"
			src, dst := gen.NewZipf(n, 1.1, rng.Uint64()).Batch(int(64 + rng.Uint32n(512)))
			g.InsertBatch(src, dst)
		case op < 7:
			// Delete a Zipf sample of present edges plus some absent ones;
			// hub vertices lose large groups (bulk path), the rest single
			// edges (per-edge path).
			what = "delete"
			z := gen.NewZipf(n, 1.1, rng.Uint64())
			var src, dst []uint32
			for k := 0; k < 40; k++ {
				v := z.Vertex()
				ns := g.AppendNeighbors(v, nil)
				for _, u := range ns {
					if rng.Uint32n(6) == 0 {
						src, dst = append(src, v), append(dst, u)
					}
				}
				src, dst = append(src, v), append(dst, rng.Uint32n(n))
			}
			g.DeleteBatch(src, dst)
		case op < 8:
			// Grow past every shard's previous snapshot, then write into
			// the new tail.
			what = "grow"
			g.EnsureVertices(n + 1 + rng.Uint32n(48))
			n = g.NumVertices()
			src := make([]uint32, 64)
			dst := make([]uint32, 64)
			for k := range src {
				src[k], dst[k] = n-1-rng.Uint32n(64), rng.Uint32n(n)
			}
			g.InsertBatch(src, dst)
		case op < 9:
			what = "move boundary"
			pm := g.PartitionMap()
			cur := pm.Starts[1]
			var to uint32
			if down && cur > 1 {
				to = 1 + rng.Uint32n(cur-1)
			} else {
				to = cur + 1 + rng.Uint32n(n-cur)
			}
			down = !down
			if to == cur || to >= n {
				continue
			}
			if _, _, err := g.MoveBoundary(0, to); err != nil {
				t.Fatalf("step %d: MoveBoundary(0, %d): %v", step, to, err)
			}
		default:
			what = "delete vertex"
			g.DeleteVertex(rng.Uint32n(n))
		}
		publish(step, what)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardPublishAfterForeignReuse hands a shard's latest snapshot to
// another SnapshotInto — the whole-graph one, or another shard's — before
// the shard publishes again. The shard must notice that its copy source
// was rewritten and fall back to a full pass.
func TestShardPublishAfterForeignReuse(t *testing.T) {
	g := New(256, Config{Shards: 2, Workers: 2})
	rng := gen.NewRNG(5)
	insert := func() {
		src, dst := gen.NewZipf(256, 1.1, rng.Uint64()).Batch(300)
		g.InsertBatch(src, dst)
	}
	insert()
	for _, tc := range []struct {
		victim  int
		rewrite func(*Snapshot)
	}{
		{1, func(s *Snapshot) { g.SnapshotInto(s) }},
		{0, func(s *Snapshot) { g.Shard(1).SnapshotInto(s) }},
	} {
		tc.rewrite(g.Shard(tc.victim).SnapshotInto(nil))
		insert()
		s := g.Shard(tc.victim).SnapshotInto(nil)
		requireShardSnapshot(t, g, tc.victim, s, fmt.Sprintf("shard %d after rewrite", tc.victim))
	}
}
