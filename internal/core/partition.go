package core

import (
	"fmt"
	"sort"
)

// PartitionMap is the vertex→shard routing table: an immutable, epoch-
// versioned set of sorted range boundaries. Shard i owns the contiguous
// vertex range [Starts[i], Starts[i+1]), the last shard open-ended, so a
// lookup is a binary search over Starts. Maps are never mutated in place;
// a boundary move builds a successor map (epoch+1) and the graph swaps an
// atomic pointer to it, exactly like snapshot publication. Readers that
// captured the old map keep routing consistently against the storage that
// existed under it — the serving layer pairs each pinned snapshot with the
// map epoch it was published under to detect mixed map/snapshot states.
type PartitionMap struct {
	// Epoch increments by one per boundary move. The initial map is epoch 0.
	Epoch uint64
	// Starts[i] is the first vertex ID of shard i's range. Starts[0] is
	// always 0 and the values are strictly increasing, so no shard's range
	// is ever empty.
	Starts []uint32
	// RangeEpoch[i] is the map epoch at which shard i's range last changed
	// (0 for never-moved ranges). A snapshot published under map epoch e is
	// consistent with this map's view of shard i iff e >= RangeEpoch[i].
	RangeEpoch []uint64
}

// NewUniformMap returns the epoch-0 map splitting [0, n) into s equal
// contiguous ranges (the last open-ended), matching the fixed-span layout
// earlier revisions hard-coded: span = ceil(n/s), at least 1.
func NewUniformMap(n uint32, s int) *PartitionMap {
	span := n
	if s > 1 {
		span = (n + uint32(s) - 1) / uint32(s)
	}
	if span == 0 {
		span = 1
	}
	pm := &PartitionMap{
		Starts:     make([]uint32, s),
		RangeEpoch: make([]uint64, s),
	}
	for i := range pm.Starts {
		pm.Starts[i] = uint32(i) * span
	}
	return pm
}

// NumShards returns the number of ranges in the map.
func (pm *PartitionMap) NumShards() int { return len(pm.Starts) }

// ShardOf returns the index of the shard owning vertex v: the greatest i
// with Starts[i] <= v. Every ID has an owning shard because Starts[0] is 0
// and the last range is open-ended.
func (pm *PartitionMap) ShardOf(v uint32) int {
	s := pm.Starts
	if len(s) == 1 {
		return 0
	}
	// sort.Search for the first start > v; the owner is the range before it.
	lo, hi := 1, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Start returns the first vertex ID of shard i's range.
func (pm *PartitionMap) Start(i int) uint32 { return pm.Starts[i] }

// RangeLen returns the length of shard i's slice of the logical vertex
// space [0, n): the storage size a fully materialized shard i needs.
func (pm *PartitionMap) RangeLen(i int, n uint32) int {
	base := pm.Starts[i]
	if n <= base {
		return 0
	}
	end := n
	if i+1 < len(pm.Starts) && pm.Starts[i+1] < n {
		end = pm.Starts[i+1]
	}
	return int(end - base)
}

// WithBoundary returns the successor map moving the boundary between
// shards k and k+1 to newStart: epoch+1, RangeEpoch of both affected
// ranges set to the new epoch. It validates the move against this map.
func (pm *PartitionMap) WithBoundary(k int, newStart uint32) (*PartitionMap, error) {
	if err := pm.validateMove(k, newStart); err != nil {
		return nil, err
	}
	next := &PartitionMap{
		Epoch:      pm.Epoch + 1,
		Starts:     append([]uint32(nil), pm.Starts...),
		RangeEpoch: append([]uint64(nil), pm.RangeEpoch...),
	}
	next.Starts[k+1] = newStart
	next.RangeEpoch[k] = next.Epoch
	next.RangeEpoch[k+1] = next.Epoch
	return next, nil
}

// validateMove checks that moving boundary k→newStart keeps Starts
// strictly increasing and actually moves it.
func (pm *PartitionMap) validateMove(k int, newStart uint32) error {
	if k < 0 || k+1 >= len(pm.Starts) {
		return fmt.Errorf("core: boundary %d out of range (S=%d)", k, len(pm.Starts))
	}
	if newStart == pm.Starts[k+1] {
		return ErrNoMove
	}
	if newStart <= pm.Starts[k] {
		return fmt.Errorf("core: new start %d would empty shard %d (start %d)", newStart, k, pm.Starts[k])
	}
	if k+2 < len(pm.Starts) && newStart >= pm.Starts[k+2] {
		return fmt.Errorf("core: new start %d would empty shard %d (next start %d)", newStart, k+1, pm.Starts[k+2])
	}
	return nil
}

// CheckInvariants validates the map's structural invariants.
func (pm *PartitionMap) CheckInvariants(shards int) error {
	if len(pm.Starts) != shards || len(pm.RangeEpoch) != shards {
		return fmt.Errorf("core: partition map has %d/%d entries, want %d", len(pm.Starts), len(pm.RangeEpoch), shards)
	}
	if pm.Starts[0] != 0 {
		return fmt.Errorf("core: partition map Starts[0] = %d, want 0", pm.Starts[0])
	}
	if !sort.SliceIsSorted(pm.Starts, func(a, b int) bool { return pm.Starts[a] < pm.Starts[b] }) {
		return fmt.Errorf("core: partition map starts not strictly increasing: %v", pm.Starts)
	}
	for i := 1; i < len(pm.Starts); i++ {
		if pm.Starts[i] == pm.Starts[i-1] {
			return fmt.Errorf("core: partition map starts not strictly increasing: %v", pm.Starts)
		}
	}
	for i, e := range pm.RangeEpoch {
		if e > pm.Epoch {
			return fmt.Errorf("core: partition map RangeEpoch[%d]=%d > Epoch %d", i, e, pm.Epoch)
		}
	}
	return nil
}

// ErrNoMove is returned by boundary-move operations when newStart equals
// the current boundary: the map would be unchanged.
var ErrNoMove = fmt.Errorf("core: boundary already at requested start")

// PartitionMap returns the graph's current routing map. The pointer is
// immutable; successive calls may return different maps after MoveBoundary.
func (g *Graph) PartitionMap() *PartitionMap { return g.pmap.Load() }

// MoveBoundary moves the boundary between shards k and k+1 to newStart,
// splicing the vertex blocks of the transferred sub-range between the two
// shardStates and installing the successor map (epoch+1). It returns the
// number of materialized vertices and directed edges that changed owner.
//
// The caller must hold both affected shards quiescent — no concurrent
// update, snapshot, or direct-Graph read may touch shards k and k+1 for
// the duration (other shards may keep working: the splice touches only
// the two shardStates and the map pointer). internal/serve enforces this
// by parking both shard writers on a rendezvous control entry.
func (g *Graph) MoveBoundary(k int, newStart uint32) (movedVerts uint32, movedEdges uint64, err error) {
	pm := g.pmap.Load()
	next, err := pm.WithBoundary(k, newStart)
	if err != nil {
		return 0, 0, err
	}
	a, b := &g.shards[k], &g.shards[k+1]
	old := pm.Starts[k+1]
	if newStart < old {
		movedVerts, movedEdges = spliceDown(a, b, newStart, old)
		a.m.Add(^movedEdges + 1) // two's-complement subtract
		b.m.Add(movedEdges)
	} else {
		movedVerts, movedEdges = spliceUp(a, b, old, newStart)
		b.m.Add(^movedEdges + 1)
		a.m.Add(movedEdges)
	}
	// The splice renumbers slots, so neither shard's previous snapshot
	// lines up with its storage anymore: the next publish of each is a
	// full pass.
	a.last, b.last = nil, nil
	g.pmap.Store(next)
	return movedVerts, movedEdges, nil
}

// spliceDown moves the materialized vertex blocks of global range
// [newStart, old) from donor a to receiver b (boundary moves left: b's
// range grows downward). It updates bases and returns the moved
// materialized vertex count and their summed out-degrees.
func spliceDown(a, b *shardState, newStart, old uint32) (uint32, uint64) {
	lo := int(newStart - a.base)
	if lo > len(a.verts) {
		lo = len(a.verts)
	}
	moved := a.verts[lo:]
	var edges uint64
	for i := range moved {
		edges += uint64(moved[i].deg)
	}
	gap := int(old - newStart) // width of the transferred range
	switch {
	case len(b.verts) == 0 && len(moved) == 0:
		// Nothing materialized on either side of the new boundary.
	case len(b.verts) == 0:
		// Receiver had no storage: the moved prefix becomes its storage
		// (materialization is always a prefix of the range, which holds
		// because moved starts exactly at newStart).
		nb := make([]vertex, len(moved))
		copy(nb, moved)
		b.verts = nb
	default:
		// Receiver has storage from old base: prepend the full transferred
		// width, zero-filling any unmaterialized middle, to stay contiguous.
		nb := make([]vertex, gap+len(b.verts))
		copy(nb, moved)
		copy(nb[gap:], b.verts)
		b.verts = nb
	}
	for i := range moved {
		moved[i] = vertex{} // drop overflow pointers from the donor's tail
	}
	a.verts = a.verts[:lo]
	b.base = newStart
	return uint32(len(moved)), edges
}

// spliceUp moves the materialized vertex blocks of global range
// [old, newStart) from donor b to receiver a (boundary moves right: a's
// range grows upward). It updates bases and returns the moved materialized
// vertex count and their summed out-degrees.
func spliceUp(a, b *shardState, old, newStart uint32) (uint32, uint64) {
	mLen := int(newStart - old)
	if mLen > len(b.verts) {
		mLen = len(b.verts)
	}
	moved := b.verts[:mLen]
	var edges uint64
	for i := range moved {
		edges += uint64(moved[i].deg)
	}
	if len(moved) > 0 {
		// Receiver must be materialized through old before appending the
		// moved prefix, so its storage stays a contiguous prefix of the range.
		full := int(old - a.base)
		na := make([]vertex, full+len(moved))
		copy(na, a.verts)
		copy(na[full:], moved)
		a.verts = na
	}
	for i := range moved {
		moved[i] = vertex{}
	}
	b.verts = b.verts[mLen:]
	b.base = newStart
	return uint32(len(moved)), edges
}
