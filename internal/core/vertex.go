package core

import (
	"lsgraph/internal/hitree"
	"lsgraph/internal/pma"
	"lsgraph/internal/ria"
)

// overflow is the structure holding a vertex's neighbors beyond the L
// inline slots. Implementations: *arrOverflow (plain sorted array, degree
// ≤ L+A), *ria.RIA (degree ≤ L+M), *hitree.Tree (above), and *pmaOverflow
// for the "PMA instead of RIA" ablation.
type overflow interface {
	Insert(u uint32) bool
	Delete(u uint32) bool
	Has(u uint32) bool
	Len() int
	Min() uint32
	DeleteMin() uint32
	Traverse(f func(u uint32))
	// Blocks yields ascending contiguous segments aliasing the structure's
	// backing storage, under the engine.NeighborBlocker contract; it
	// reports whether the walk ran to completion.
	Blocks(yield func(block []uint32) bool) bool
	AppendTo(dst []uint32) []uint32
	Memory() uint64
	IndexMemory() uint64
}

// vertex is a vertex block (§4.1, Figure 9 ①): sized so that degree, the
// inline neighbor slots, and the overflow pointer together occupy roughly
// one cache line. The inline slots always hold the deg∧L smallest
// neighbors in sorted order, so an ordered traversal is inline-then-
// overflow; all overflow structures expose Min/DeleteMin to preserve that
// invariant under out-of-order updates.
type vertex struct {
	deg    uint32
	inline [inlineCap]uint32
	ov     overflow
}

// inlineLen returns the number of live inline slots.
func (vb *vertex) inlineLen() int {
	if vb.deg < inlineCap {
		return int(vb.deg)
	}
	return inlineCap
}

// inlineFind returns the slot of u in the inline area, or the insertion
// point with found=false.
func (vb *vertex) inlineFind(u uint32) (int, bool) {
	n := vb.inlineLen()
	for i := 0; i < n; i++ {
		if vb.inline[i] == u {
			return i, true
		}
		if vb.inline[i] > u {
			return i, false
		}
	}
	return n, false
}

// arrOverflow is the plain sorted array used for degrees up to L+A.
type arrOverflow struct {
	data []uint32
}

func (a *arrOverflow) find(u uint32) (int, bool) {
	lo, hi := 0, len(a.data)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.data[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a.data) && a.data[lo] == u
}

func (a *arrOverflow) Insert(u uint32) bool {
	i, found := a.find(u)
	if found {
		return false
	}
	a.data = append(a.data, 0)
	copy(a.data[i+1:], a.data[i:])
	a.data[i] = u
	return true
}

func (a *arrOverflow) Delete(u uint32) bool {
	i, found := a.find(u)
	if !found {
		return false
	}
	a.data = append(a.data[:i], a.data[i+1:]...)
	return true
}

func (a *arrOverflow) Has(u uint32) bool { _, f := a.find(u); return f }
func (a *arrOverflow) Len() int          { return len(a.data) }
func (a *arrOverflow) Min() uint32       { return a.data[0] }

func (a *arrOverflow) DeleteMin() uint32 {
	v := a.data[0]
	a.data = a.data[1:]
	return v
}

func (a *arrOverflow) Traverse(f func(uint32)) {
	for _, u := range a.data {
		f(u)
	}
}

func (a *arrOverflow) Blocks(yield func([]uint32) bool) bool {
	if len(a.data) == 0 {
		return true
	}
	return yield(a.data[:len(a.data):len(a.data)])
}

func (a *arrOverflow) AppendTo(dst []uint32) []uint32 { return append(dst, a.data...) }
func (a *arrOverflow) Memory() uint64                 { return uint64(cap(a.data)*4 + 24) }
func (a *arrOverflow) IndexMemory() uint64            { return 0 }

// pmaOverflow adapts a per-vertex PMA for the RIA-vs-PMA ablation.
type pmaOverflow struct {
	p *pma.PMA[uint32]
}

func (o *pmaOverflow) Insert(u uint32) bool    { return o.p.Insert(u) }
func (o *pmaOverflow) Delete(u uint32) bool    { return o.p.Delete(u) }
func (o *pmaOverflow) Has(u uint32) bool       { return o.p.Has(u) }
func (o *pmaOverflow) Len() int                { return o.p.Len() }
func (o *pmaOverflow) Min() uint32             { return o.p.Min() }
func (o *pmaOverflow) DeleteMin() uint32       { return o.p.DeleteMin() }
func (o *pmaOverflow) Traverse(f func(uint32)) { o.p.Traverse(f) }
func (o *pmaOverflow) Blocks(yield func([]uint32) bool) bool {
	return o.p.Blocks(yield)
}
func (o *pmaOverflow) AppendTo(dst []uint32) []uint32 { return o.p.AppendTo(dst) }
func (o *pmaOverflow) Memory() uint64                 { return o.p.Memory() }
func (o *pmaOverflow) IndexMemory() uint64            { return 0 }

// newOverflow builds the right overflow structure for a sorted neighbor
// slice of the given final size, per the thresholds of §4.1.
func (g *Graph) newOverflow(ns []uint32) overflow {
	switch {
	case g.cfg.Overflow == KindPMA:
		return &pmaOverflow{p: pma.BulkLoad(ns)}
	case len(ns) <= g.cfg.ArrayMax:
		d := make([]uint32, len(ns))
		copy(d, ns)
		return &arrOverflow{data: d}
	case len(ns) <= g.cfg.M:
		return ria.BulkLoad(ns, g.cfg.Alpha)
	default:
		return hitree.BulkLoad(ns, g.treeCfg)
	}
}

// maybePromote upgrades ov after growth: array → RIA past ArrayMax, RIA →
// HITree past M (the transition §6.2 counts). It returns the current
// structure.
func (g *Graph) maybePromote(ov overflow) overflow {
	switch o := ov.(type) {
	case *arrOverflow:
		if len(o.data) > g.cfg.ArrayMax && g.cfg.Overflow != KindPMA {
			obsPromoteArrRIA.Inc()
			return ria.BulkLoad(o.data, g.cfg.Alpha)
		}
	case *ria.RIA:
		if o.Len() > g.cfg.M {
			ns := o.AppendTo(make([]uint32, 0, o.Len()))
			g.stats.RIAToHITree.Add(1)
			obsPromoteRIAHIT.Inc()
			return hitree.BulkLoad(ns, g.treeCfg)
		}
	}
	return ov
}
