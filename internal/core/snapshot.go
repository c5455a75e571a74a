package core

import (
	"math/bits"

	"lsgraph/internal/parallel"
)

// Snapshot is an immutable CSR view of the graph at the moment it was
// taken. It implements the read side of engine.Graph, so analytics can run
// on a frozen snapshot while the live graph keeps ingesting updates — the
// capability Aspen gets from functional trees, obtained here by flattening
// into a CSR (cheap: Table 2 measures a full flattening pass as TC's
// "Traversal" column at 0.6%-19% of one kernel). A shard publish
// (Shard.SnapshotInto) need not even pay the full pass: it copies the runs
// of vertices unchanged since the shard's previous snapshot from that
// snapshot and re-materializes only the vertices updated since.
type Snapshot struct {
	offs []uint64
	adj  []uint32
	// src is the shard whose publish last wrote this snapshot (nil for a
	// whole-graph or composed snapshot). A shard trusts its previous
	// snapshot as a copy source only while src still names it, so a buffer
	// rewritten elsewhere can never feed stale runs into a publish.
	src *shardState
}

// Snapshot flattens the current graph into a fresh CSR view. The call
// itself must be serialized with updates — take it between batches, or let
// internal/serve's writer pipeline do that for you (its shard writers
// republish once per drained queue slice, which is how concurrent
// ingest+analytics is obtained). The returned view is immutable and may be
// read concurrently with anything, including further updates to g.
func (g *Graph) Snapshot() *Snapshot { return g.SnapshotInto(nil) }

// ensureOffs sizes s.offs to n+1, reusing capacity.
func (s *Snapshot) ensureOffs(n int) {
	if cap(s.offs) >= n+1 {
		s.offs = s.offs[:n+1]
	} else {
		s.offs = make([]uint64, n+1)
	}
}

// ensureAdj sizes s.adj to m, reusing capacity. An outgrown recycled
// buffer is reallocated with m/8 headroom, so a growing shard's recycled
// snapshots keep fitting for many publishes instead of paying a fresh,
// zeroed allocation on each; a first allocation is exact.
func (s *Snapshot) ensureAdj(m uint64) {
	switch {
	case uint64(cap(s.adj)) >= m:
		s.adj = s.adj[:m]
	case cap(s.adj) > 0:
		s.adj = make([]uint32, m, m+m/8)
	default:
		s.adj = make([]uint32, m)
	}
}

// SnapshotInto flattens the current graph into s, reusing s's buffers when
// their capacity allows, and returns the populated snapshot (s itself, or
// a fresh Snapshot if s is nil). It is the allocation-free republish path
// for callers that repeatedly snapshot an evolving graph: hand back a
// snapshot no reader uses anymore and steady-state flattening allocates
// nothing (BenchmarkSnapshotInto measures the drop).
//
// Like Snapshot, the call must be serialized with updates. The previous
// contents of s are overwritten; callers must ensure no concurrent reader
// still holds s — the epoch-drain protocol in internal/serve exists to
// prove exactly that.
func (g *Graph) SnapshotInto(s *Snapshot) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	s.src = nil
	n := int(g.NumVertices())
	s.ensureOffs(n)
	s.offs[0] = 0
	for v := 0; v < n; v++ {
		var deg uint64
		if vb := g.vb(uint32(v)); vb != nil {
			deg = uint64(vb.deg)
		}
		s.offs[v+1] = s.offs[v] + deg
	}
	s.ensureAdj(s.offs[n])
	parallel.For(n, g.cfg.Workers, func(v int) {
		// Append into the pre-sized CSR segment for v; the full-slice
		// expression pins capacity so a degree mismatch fails loudly
		// instead of clobbering v+1's segment.
		g.AppendNeighbors(uint32(v), s.adj[s.offs[v]:s.offs[v]:s.offs[v+1]])
	})
	return s
}

// snapshotShardInto flattens one shard into a local CSR — offsets indexed
// by slot within the shard, adjacency holding global vertex IDs — with the
// same buffer-reuse contract as SnapshotInto.
//
// The pass is incremental against the shard's previous snapshot prev: a
// slot below prev's vertex count whose dirty bit is clear is unchanged
// since prev, and every maximal run of such clean slots occupies one
// contiguous, equally long segment in both CSRs, so its offsets are
// prev's shifted by one delta and its adjacency is copied from prev.adj
// with one copy. Every other slot is re-materialized from its vertex
// block. With no usable prev — the first publish, after a
// MoveBoundary renumbered the slots, when s is prev itself, or when prev's
// buffers were since rewritten by anyone else — every slot counts as
// dirty and the same loop is a full flatten.
func (g *Graph) snapshotShardInto(sh *shardState, s *Snapshot, p int) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	prev := sh.last
	if prev == s || (prev != nil && prev.src != sh) {
		prev = nil
	}
	n := len(sh.verts)
	cleanHi := 0 // slots [0, cleanHi) may be clean
	if prev != nil {
		cleanHi = min(n, int(prev.NumVertices()))
	}
	dirty := sh.dirty
	// Offsets are the prefix sum over degrees; only dirty slots read their
	// vertex blocks (the delta may wrap, which modular addition undoes).
	s.ensureOffs(n)
	s.offs[0] = 0
	for v := 0; v < n; {
		if end := cleanEnd(dirty, v, cleanHi); end > v {
			d := s.offs[v] - prev.offs[v]
			for u := v + 1; u <= end; u++ {
				s.offs[u] = prev.offs[u] + d
			}
			v = end
			continue
		}
		s.offs[v+1] = s.offs[v] + uint64(sh.verts[v].deg)
		v++
	}
	s.ensureAdj(s.offs[n])
	parallel.ForChunk(n, p, func(lo, hi int) {
		for v := lo; v < hi; {
			if end := cleanEnd(dirty, v, min(hi, cleanHi)); end > v {
				copy(s.adj[s.offs[v]:s.offs[end]], prev.adj[prev.offs[v]:prev.offs[end]])
				v = end
				continue
			}
			// Append into the pre-sized CSR segment for v; the full-slice
			// expression pins capacity so a degree mismatch fails loudly
			// instead of clobbering v+1's segment.
			appendNeighborsVB(&sh.verts[v], s.adj[s.offs[v]:s.offs[v]:s.offs[v+1]])
			v++
		}
	})
	s.src = sh
	sh.last = s
	sh.dirty = growU64(sh.dirty, (n+63)/64)
	clear(sh.dirty)
	return s
}

// cleanEnd returns the end of the clean run starting at slot v: the first
// slot in [v, hi) whose dirty bit is set, hi if there is none, and v
// itself when v >= hi. The bitmap must cover [0, hi).
func cleanEnd(dirty []uint64, v, hi int) int {
	for i := v; i < hi; i = (i | 63) + 1 {
		if w := dirty[i>>6] >> uint(i&63); w != 0 {
			return min(i+bits.TrailingZeros64(w), hi)
		}
	}
	return max(v, hi)
}

// ComposeSnapshots concatenates per-shard local snapshots (in shard order,
// with bases[i] the first global ID of shard i) into one flat full-graph
// CSR of n vertices. Gaps — ranges no shard's snapshot covers yet, which
// happen when the vertex space has grown past a shard's last publish —
// flatten to degree-0 vertices. It is the lazy materialization step behind
// a composed serving view's flat CSR.
func ComposeSnapshots(parts []*Snapshot, bases []uint32, n uint32) *Snapshot {
	s := &Snapshot{}
	s.ensureOffs(int(n))
	s.offs[0] = 0
	var m uint64
	for i, part := range parts {
		for v := uint32(0); v < part.NumVertices(); v++ {
			gv := bases[i] + v
			if gv >= n {
				break
			}
			m += uint64(part.Degree(v))
			s.offs[gv+1] = m
		}
		// Fill the gap up to the next shard's base, clamped to n: with an
		// uneven n/Shards split the last shards' bases can lie beyond the
		// logical bound (e.g. n=5, span=2 gives bases 0,2,4,6).
		hi := n
		if i+1 < len(parts) && bases[i+1] < n {
			hi = bases[i+1]
		}
		for gv := bases[i] + part.NumVertices(); gv < hi; gv++ {
			s.offs[gv+1] = m
		}
	}
	s.ensureAdj(m)
	off := uint64(0)
	for _, part := range parts {
		off += uint64(copy(s.adj[off:], part.adj))
	}
	return s
}

// CSR exposes the snapshot's raw offset and adjacency arrays (offs has
// NumVertices+1 entries; adj holds NumEdges neighbor IDs). Both alias
// snapshot storage: read-only, and only valid while the snapshot is —
// for an epoch-pinned serving snapshot, until its view is released. The
// durability layer serializes checkpoints from it without copying.
func (s *Snapshot) CSR() (offs []uint64, adj []uint32) { return s.offs, s.adj }

// NumVertices returns the snapshot's vertex count.
func (s *Snapshot) NumVertices() uint32 { return uint32(len(s.offs) - 1) }

// NumEdges returns the snapshot's directed edge count.
func (s *Snapshot) NumEdges() uint64 { return uint64(len(s.adj)) }

// Degree returns v's out-degree at snapshot time.
func (s *Snapshot) Degree(v uint32) uint32 {
	return uint32(s.offs[v+1] - s.offs[v])
}

// EdgeOffset returns the cumulative edge count of vertices [0, v): the CSR
// offset of v's adjacency segment. v may equal NumVertices, giving
// NumEdges. The rebalancer binary-searches it to find the vertex boundary
// that splits a shard's edge mass at a target fraction.
func (s *Snapshot) EdgeOffset(v uint32) uint64 { return s.offs[v] }

// Neighbors returns v's sorted neighbors; the slice aliases snapshot
// storage and must not be mutated.
func (s *Snapshot) Neighbors(v uint32) []uint32 {
	return s.adj[s.offs[v]:s.offs[v+1]]
}

// ForEachNeighbor applies f to v's neighbors in ascending order.
func (s *Snapshot) ForEachNeighbor(v uint32, f func(u uint32)) {
	for _, u := range s.Neighbors(v) {
		f(u)
	}
}

// ForEachNeighborUntil applies f in ascending order until it returns false.
func (s *Snapshot) ForEachNeighborUntil(v uint32, f func(u uint32) bool) {
	for _, u := range s.Neighbors(v) {
		if !f(u) {
			return
		}
	}
}

// NeighborBlocks yields v's entire CSR segment as one block aliasing
// snapshot storage (engine.NeighborBlocker) — the ideal case for the block
// read path: one yield per vertex, fully contiguous.
func (s *Snapshot) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	if ns := s.Neighbors(v); len(ns) > 0 {
		yield(ns[:len(ns):len(ns)])
	}
}
