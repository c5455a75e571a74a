// Package batch is the update-prepare pipeline every engine shares (§5
// "Batch Updates"): a batch of (src,dst) edges is packed into sortable
// keys, sorted, deduplicated and grouped by source vertex, so that each
// vertex's updates form one contiguous sorted run that exactly one worker
// applies. It also holds the two sorted-set kernels a large group is
// applied with in bulk: Merge for inserts (Aspen's batch union) and
// Subtract for deletes (its batch difference).
//
// The pipeline's three steps are exported separately — Scratch.Pack,
// parallel.SortUint64, Scratch.Group — so an engine can time and trace
// each one; Scratch.Prepare runs all three.
package batch

import (
	"fmt"
	"sync/atomic"

	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
)

// Group is the contiguous run of one source vertex's updates inside the
// sorted, deduplicated batch: keys[Lo:Hi] all have source V. Group emits
// exactly one Group per source vertex, which is what lets the apply phase
// hand each vertex to exactly one worker (§5's lock-free invariant).
type Group struct {
	V      uint32
	Lo, Hi int
}

// ParallelMin is the smallest batch the pipeline parallelizes; below it
// one worker owns the whole batch, since fork-join overhead would exceed
// the scan being split.
const ParallelMin = 1 << 12

// Scratch holds the pipeline's reusable buffers. An engine keeps one per
// concurrently updated unit (the whole graph, or one shard) and never
// runs two batches through it at once, so steady-state batches are
// allocation-free: after the first batch of a given size, pack, dedup and
// group discovery all run in retained memory. The zero value is ready to
// use. The keys and groups a call returns alias the arena and are valid
// until the next call.
type Scratch struct {
	ks     []uint64 // packed (src,dst) keys
	tmp    []uint64 // parallel-dedup scatter target; swapped with ks per batch
	groups []Group  // per-vertex groups
	cuts   []int    // p+1 source-aligned range bounds
	kept   []int    // per-range deduped key count -> prefix offsets
	gcnt   []int    // per-range group count -> prefix offsets
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growGroups(s []Group, n int) []Group {
	if cap(s) < n {
		return make([]Group, n)
	}
	return s[:n]
}

// Prepare packs, sorts, deduplicates and groups a batch by source vertex
// with p workers (p <= 0 means parallel.Procs), panicking on the caller's
// goroutine if an endpoint lies outside [0,n). It returns the sorted,
// deduplicated keys and their per-vertex groups in ascending vertex
// order.
func (sc *Scratch) Prepare(src, dst []uint32, n uint32, p int) ([]uint64, []Group) {
	if p <= 0 {
		p = parallel.Procs
	}
	ks := sc.Pack(src, dst, n, p)
	parallel.SortUint64(ks, p)
	return sc.Group(ks, p, nil)
}

// Pack validates every endpoint against the vertex bound n and packs
// src/dst into sortable (src<<32)|dst keys, in parallel for large
// batches. An out-of-range edge is recorded by the worker that finds it
// and re-raised as a panic on the caller's goroutine, because a panic
// inside a worker goroutine could not be recovered by the caller.
func (sc *Scratch) Pack(src, dst []uint32, n uint32, p int) []uint64 {
	sc.ks = growU64(sc.ks, len(src))
	ks := sc.ks
	var bad atomic.Int64 // 1-based index of an out-of-range edge
	parallel.ForChunkW(len(src), p, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d := src[i], dst[i]
			if s >= n || d >= n {
				bad.CompareAndSwap(0, int64(i)+1)
				return
			}
			ks[i] = uint64(s)<<32 | uint64(d)
		}
	})
	if i := bad.Load(); i != 0 {
		panicOutOfRange(src[i-1], dst[i-1], n)
	}
	return ks
}

// CheckBounds panics with Pack's message if any edge has an endpoint
// outside [0,n). It is the sequential check for callers that split a
// batch across goroutines before packing it, where Pack's own panic
// would be raised on a goroutine the caller cannot recover.
func CheckBounds(src, dst []uint32, n uint32) {
	for i := range src {
		if src[i] >= n || dst[i] >= n {
			panicOutOfRange(src[i], dst[i], n)
		}
	}
}

func panicOutOfRange(s, d, n uint32) {
	panic(fmt.Sprintf("batch: edge (%d,%d) outside vertex space [0,%d); grow with EnsureVertices",
		s, d, n))
}

// Group removes duplicate keys from the sorted ks and discovers the
// per-source-vertex groups, observing each group's size into sizes when
// it is non-nil and obs collection is on. Small batches dedup in place
// on one worker. Large batches split into p ranges whose bounds are
// advanced to source-vertex boundaries — duplicates are equal keys and
// therefore share a source, so neither a duplicate run nor a group can
// straddle two ranges. One parallel pass counts each range's survivors
// and groups, a p-length prefix sum places them, and a second parallel
// pass writes keys (into tmp, never into another range's unread input)
// and groups at their final offsets.
func (sc *Scratch) Group(ks []uint64, p int, sizes *obs.Histogram) ([]uint64, []Group) {
	n := len(ks)
	if n == 0 {
		return ks, sc.groups[:0]
	}
	if maxP := n / 1024; p > maxP {
		p = maxP
	}
	if p <= 1 || n < ParallelMin {
		return sc.groupSeq(ks, sizes)
	}

	// Source-aligned range bounds. cuts is monotonic: a cut lands at the
	// next source boundary at or after w*n/p, never before the previous cut.
	cuts := growInt(sc.cuts, p+1)
	cuts[0], cuts[p] = 0, n
	for w := 1; w < p; w++ {
		c := w * n / p
		if c < cuts[w-1] {
			c = cuts[w-1]
		}
		for c > 0 && c < n && ks[c]>>32 == ks[c-1]>>32 {
			c++
		}
		cuts[w] = c
	}

	// Pass 1: count survivors and groups per range.
	kept := growInt(sc.kept, p)
	gcnt := growInt(sc.gcnt, p)
	parallel.ForBlockedW(p, p, func(_, r int) {
		lo, hi := cuts[r], cuts[r+1]
		nk, ng := 0, 0
		var prev uint64
		for i := lo; i < hi; i++ {
			k := ks[i]
			if i > lo && k == prev {
				continue
			}
			if i == lo || k>>32 != prev>>32 {
				ng++
			}
			prev = k
			nk++
		}
		kept[r], gcnt[r] = nk, ng
	})

	// Exclusive prefix sums place each range's output.
	totalK, totalG := 0, 0
	for r := 0; r < p; r++ {
		kept[r], totalK = totalK, totalK+kept[r]
		gcnt[r], totalG = totalG, totalG+gcnt[r]
	}

	// Pass 2: write deduped keys and groups at their final offsets.
	tmp := growU64(sc.tmp, n)
	groups := growGroups(sc.groups, totalG)
	on := sizes != nil && obs.Enabled()
	parallel.ForBlockedW(p, p, func(_, r int) {
		lo, hi := cuts[r], cuts[r+1]
		kw, gw := kept[r], gcnt[r]
		var prev uint64
		for i := lo; i < hi; i++ {
			k := ks[i]
			if i > lo && k == prev {
				continue
			}
			if i == lo || k>>32 != prev>>32 {
				if i > lo {
					groups[gw-1].Hi = kw
				}
				groups[gw] = Group{V: uint32(k >> 32), Lo: kw}
				gw++
			}
			tmp[kw] = k
			kw++
			prev = k
		}
		if hi > lo {
			groups[gw-1].Hi = kw
		}
		if on {
			for gi := gcnt[r]; gi < gw; gi++ {
				sizes.Observe(uint64(groups[gi].Hi - groups[gi].Lo))
			}
		}
	})

	sc.cuts, sc.kept, sc.gcnt = cuts, kept, gcnt
	sc.groups = groups
	// The deduped stream now lives in tmp; swap the arenas so the next
	// batch reuses both buffers.
	sc.ks, sc.tmp = tmp, ks
	return tmp[:totalK], groups
}

// groupSeq is the one-worker dedup + group discovery, in place.
func (sc *Scratch) groupSeq(ks []uint64, sizes *obs.Histogram) ([]uint64, []Group) {
	w := 0
	for i, k := range ks {
		if i > 0 && k == ks[i-1] {
			continue
		}
		ks[w] = k
		w++
	}
	ks = ks[:w]
	groups := sc.groups[:0]
	on := sizes != nil && obs.Enabled()
	for i := 0; i < len(ks); {
		v := uint32(ks[i] >> 32)
		j := i
		for j < len(ks) && uint32(ks[j]>>32) == v {
			j++
		}
		groups = append(groups, Group{V: v, Lo: i, Hi: j})
		if on {
			sizes.Observe(uint64(j - i))
		}
		i = j
	}
	sc.groups = groups
	return ks, groups
}

// Merge returns the sorted union of the sorted neighbor set old and the
// destinations of one group's keys ks, built in dst's storage (grown when
// its capacity is below len(old)+len(ks)). It is the insert kernel of a
// bulk rebuild.
func Merge(dst, old []uint32, ks []uint64) []uint32 {
	merged := dst[:0]
	if cap(merged) < len(old)+len(ks) {
		merged = make([]uint32, 0, len(old)+len(ks))
	}
	i, j := 0, 0
	for i < len(old) && j < len(ks) {
		a, b := old[i], uint32(ks[j])
		switch {
		case a < b:
			merged = append(merged, a)
			i++
		case a > b:
			merged = append(merged, b)
			j++
		default:
			merged = append(merged, a)
			i++
			j++
		}
	}
	merged = append(merged, old[i:]...)
	for ; j < len(ks); j++ {
		u := uint32(ks[j])
		if len(merged) > 0 && merged[len(merged)-1] == u {
			continue
		}
		merged = append(merged, u)
	}
	return merged
}

// Subtract returns the sorted neighbor set old minus the destinations of
// one group's keys ks, built in dst's storage (grown when its capacity is
// below len(old)). It is the delete kernel of a bulk rebuild.
func Subtract(dst, old []uint32, ks []uint64) []uint32 {
	kept := dst[:0]
	if cap(kept) < len(old) {
		kept = make([]uint32, 0, len(old))
	}
	j := 0
	for _, a := range old {
		for j < len(ks) && uint32(ks[j]) < a {
			j++
		}
		if j < len(ks) && uint32(ks[j]) == a {
			j++
			continue
		}
		kept = append(kept, a)
	}
	return kept
}
