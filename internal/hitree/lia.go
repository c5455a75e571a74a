package hitree

import (
	"math"
	"math/bits"

	"lsgraph/internal/obs"
	"lsgraph/internal/ria"
)

// Entry types of an LIA slot (§3.2). Two bits per entry, packed 32 per word.
const (
	tU = 0 // Unused: free slot
	tE = 1 // Edge: element stored at its model-predicted position
	tB = 2 // Block: element stored in a packed run at the block front
	tC = 3 // Child pointer: the block is delegated to a child node
)

// lia is a Learned Indexed Array: a gapped array addressed by a linear
// regression model, LIPP-style — every key's canonical slot is its predicted
// slot, so lookups need no local search. Position conflicts are resolved by
// in-block horizontal movement (packing the block as a B-run) and, when a
// block overflows, by vertical movement (creating a child node). Adjacent
// child blocks share one merged child (Algorithm 1, line 21).
type lia struct {
	slope, intercept float64
	data             []uint32
	types            []uint64 // 2 bits per entry
	children         []node   // one slot per block; runs share a pointer
	total            int      // subtree element count
	builtSize        int      // size at construction, for rebuild heuristic
}

func (l *lia) typeOf(pos int) int {
	return int(l.types[pos>>5] >> uint((pos&31)*2) & 3)
}

func (l *lia) setType(pos, t int) {
	sh := uint((pos & 31) * 2)
	w := &l.types[pos>>5]
	*w = *w&^(3<<sh) | uint64(t)<<sh
}

func (l *lia) predict(u uint32) int {
	p := int(l.slope*float64(u) + l.intercept)
	if p < 0 {
		return 0
	}
	if p >= len(l.data) {
		return len(l.data) - 1
	}
	return p
}

// fitModel least-squares fits key -> slot over the target positions
// (i+0.5)·cap/n, the linear-regression (not PLR) model of §3.2.
func fitModel(ns []uint32, capacity int) (slope, intercept float64) {
	n := len(ns)
	scale := float64(capacity) / float64(n)
	var meanX, meanY float64
	for i, k := range ns {
		meanX += float64(k)
		meanY += (float64(i) + 0.5) * scale
	}
	meanX /= float64(n)
	meanY /= float64(n)
	var cov, varX float64
	for i, k := range ns {
		dx := float64(k) - meanX
		cov += dx * ((float64(i)+0.5)*scale - meanY)
		varX += dx * dx
	}
	if varX == 0 {
		return 0, meanY
	}
	slope = cov / varX
	intercept = meanY - slope*meanX
	return slope, intercept
}

// newLIA bulk-loads ns (sorted, distinct, len > cfg.M normally) into an LIA
// following Algorithm 1, lines 7-21.
func newLIA(ns []uint32, cfg *Config) *lia {
	n := len(ns)
	capacity := int(math.Ceil(float64(n) * cfg.Alpha))
	if capacity < n {
		capacity = n
	}
	nb := (capacity + BlockSize - 1) / BlockSize
	if nb < 1 {
		nb = 1
	}
	capacity = nb * BlockSize
	l := &lia{
		data:      make([]uint32, capacity),
		types:     make([]uint64, (capacity+31)/32),
		children:  make([]node, nb),
		total:     n,
		builtSize: n,
	}
	l.slope, l.intercept = fitModel(ns, capacity)
	obsLIAFits.Inc()

	// Predicted positions are nondecreasing in i (slope >= 0), so elements
	// of one block form a contiguous range of ns. Walk block groups.
	poss := make([]int, n)
	for i, k := range ns {
		poss[i] = l.predict(k)
	}
	type childRun struct {
		firstBlk, lastBlk int
		lo, hi            int // element range in ns
	}
	var pendingRun *childRun
	flushRun := func() {
		if pendingRun == nil {
			return
		}
		obsVertical.Inc()
		child := l.buildChild(ns[pendingRun.lo:pendingRun.hi], cfg)
		for b := pendingRun.firstBlk; b <= pendingRun.lastBlk; b++ {
			l.children[b] = child
			base := b * BlockSize
			for j := 0; j < BlockSize; j++ {
				l.setType(base+j, tC)
			}
		}
		pendingRun = nil
	}
	i := 0
	for i < n {
		blk := poss[i] / BlockSize
		j := i
		for j < n && poss[j]/BlockSize == blk {
			j++
		}
		group := ns[i:j]
		switch {
		case uniquePositions(poss[i:j]):
			flushRun()
			for k := i; k < j; k++ {
				l.data[poss[k]] = ns[k]
				l.setType(poss[k], tE)
			}
		case len(group) <= BlockSize:
			flushRun()
			base := blk * BlockSize
			copy(l.data[base:], group)
			for k := 0; k < len(group); k++ {
				l.setType(base+k, tB)
			}
		default:
			// Overflow: the block becomes a child. Adjacent overflow blocks
			// merge into a single child (line 21).
			if pendingRun != nil && pendingRun.lastBlk == blk-1 {
				pendingRun.lastBlk = blk
				pendingRun.hi = j
			} else {
				flushRun()
				pendingRun = &childRun{firstBlk: blk, lastBlk: blk, lo: i, hi: j}
			}
		}
		i = j
	}
	flushRun()
	return l
}

// buildChild constructs a child node for group. A linear model that fails
// to discriminate (the whole parent collapsing into one block) must not
// recurse into another LIA over nearly the same set, so oversized groups
// relative to the parent become RIA leaves, which handle any size.
func (l *lia) buildChild(group []uint32, cfg *Config) node {
	if len(group) > cfg.M && len(group) > 3*l.builtSize/4 {
		return (*riaNode)(ria.BulkLoad(group, cfg.Alpha))
	}
	return bulkLoad(group, cfg)
}

func uniquePositions(poss []int) bool {
	for i := 1; i < len(poss); i++ {
		if poss[i] == poss[i-1] {
			return false
		}
	}
	return true
}

// blockKind classifies block blk in O(1): child, B-run, or E/U placement.
func (l *lia) blockKind(blk int) int {
	if l.children[blk] != nil {
		return tC
	}
	if l.typeOf(blk*BlockSize) == tB {
		return tB
	}
	return tE
}

// relinkChild replaces the child shared by the run containing blk.
func (l *lia) relinkChild(blk int, old, repl node) {
	if repl == old {
		return
	}
	for b := blk; b >= 0 && l.children[b] == old; b-- {
		l.children[b] = repl
	}
	for b := blk + 1; b < len(l.children) && l.children[b] == old; b++ {
		l.children[b] = repl
	}
}

func (l *lia) insert(u uint32, cfg *Config) (node, bool) {
	pos := l.predict(u)
	blk := pos / BlockSize
	base := blk * BlockSize
	var isNew bool
	switch l.blockKind(blk) {
	case tC:
		child := l.children[blk]
		repl, n := child.insert(u, cfg)
		l.relinkChild(blk, child, repl)
		isNew = n
	case tB:
		isNew = l.insertIntoRun(blk, base, u, cfg)
	default: // E/U placement
		switch l.typeOf(pos) {
		case tU:
			l.data[pos] = u
			l.setType(pos, tE)
			isNew = true
		case tE:
			if l.data[pos] == u {
				return l, false
			}
			isNew = l.convertBlockToRun(blk, base, u, cfg)
		}
	}
	if isNew {
		l.total++
		if float64(l.total) > cfg.RebuildFactor*float64(l.builtSize) {
			// Structural adjustment: refit the whole subtree so depth stays
			// bounded under sustained insertion.
			obsLIARebuilds.Inc()
			ns := l.appendTo(make([]uint32, 0, l.total))
			return bulkLoad(ns, cfg), true
		}
	}
	return l, isNew
}

// insertIntoRun merges u into the packed B-run of block blk, spilling to a
// child when the block is full (Algorithm 2, lines 19-25).
func (l *lia) insertIntoRun(blk, base int, u uint32, cfg *Config) bool {
	run := 0
	for run < BlockSize && l.typeOf(base+run) == tB {
		run++
	}
	merged := make([]uint32, 0, run+1)
	inserted := false
	for i := 0; i < run; i++ {
		v := l.data[base+i]
		if v == u {
			return false
		}
		if !inserted && v > u {
			merged = append(merged, u)
			inserted = true
		}
		merged = append(merged, v)
	}
	if !inserted {
		merged = append(merged, u)
	}
	l.storeRunOrChild(blk, base, merged, cfg)
	return true
}

// convertBlockToRun merges the E entries of block blk with u.
func (l *lia) convertBlockToRun(blk, base int, u uint32, cfg *Config) bool {
	merged := make([]uint32, 0, BlockSize+1)
	inserted := false
	for i := 0; i < BlockSize; i++ {
		if l.typeOf(base+i) != tE {
			continue
		}
		v := l.data[base+i]
		if !inserted && v > u {
			merged = append(merged, u)
			inserted = true
		}
		merged = append(merged, v)
	}
	if !inserted {
		merged = append(merged, u)
	}
	l.storeRunOrChild(blk, base, merged, cfg)
	return true
}

// storeRunOrChild writes merged (sorted) back into block blk as a B-run if
// it fits, otherwise creates a child node for it.
func (l *lia) storeRunOrChild(blk, base int, merged []uint32, cfg *Config) {
	if len(merged) <= BlockSize {
		if obs.Enabled() {
			obsHorizontal.Add(uint64(len(merged)))
		}
		copy(l.data[base:], merged)
		for i := 0; i < BlockSize; i++ {
			if i < len(merged) {
				l.setType(base+i, tB)
			} else {
				l.setType(base+i, tU)
			}
		}
		return
	}
	obsVertical.Inc()
	child := bulkLoad(merged, cfg)
	l.children[blk] = child
	for i := 0; i < BlockSize; i++ {
		l.setType(base+i, tC)
	}
}

func (l *lia) delete(u uint32) (node, bool) {
	pos := l.predict(u)
	blk := pos / BlockSize
	base := blk * BlockSize
	switch l.blockKind(blk) {
	case tC:
		child := l.children[blk]
		repl, ok := child.delete(u)
		if !ok {
			return l, false
		}
		if repl.size() == 0 {
			repl = nil
		}
		l.relinkChild(blk, child, repl)
		if repl == nil {
			// Clear the types of every block in the former run.
			for b := blk; b >= 0 && l.blockRunCleared(b); b-- {
			}
			for b := blk + 1; b < len(l.children) && l.blockRunCleared(b); b++ {
			}
		}
		l.total--
		return l, true
	case tB:
		run := 0
		for run < BlockSize && l.typeOf(base+run) == tB {
			run++
		}
		for i := 0; i < run; i++ {
			v := l.data[base+i]
			if v == u {
				copy(l.data[base+i:base+run-1], l.data[base+i+1:base+run])
				l.setType(base+run-1, tU)
				l.total--
				return l, true
			}
			if v > u {
				return l, false
			}
		}
		return l, false
	default:
		if l.typeOf(pos) == tE && l.data[pos] == u {
			l.setType(pos, tU)
			l.total--
			return l, true
		}
		return l, false
	}
}

// blockRunCleared resets block b's types to U if it was a C block with a
// now-nil child; it reports whether it cleared anything (for run walking).
func (l *lia) blockRunCleared(b int) bool {
	if l.children[b] != nil || l.typeOf(b*BlockSize) != tC {
		return false
	}
	base := b * BlockSize
	for i := 0; i < BlockSize; i++ {
		l.setType(base+i, tU)
	}
	return true
}

func (l *lia) has(u uint32) bool {
	pos := l.predict(u)
	blk := pos / BlockSize
	switch l.blockKind(blk) {
	case tC:
		return l.children[blk].has(u)
	case tB:
		base := blk * BlockSize
		for i := 0; i < BlockSize && l.typeOf(base+i) == tB; i++ {
			v := l.data[base+i]
			if v == u {
				return true
			}
			if v > u {
				return false
			}
		}
		return false
	default:
		return l.typeOf(pos) == tE && l.data[pos] == u
	}
}

func (l *lia) traverse(f func(uint32)) {
	l.traverseUntil(func(u uint32) bool { f(u); return true })
}

func (l *lia) traverseUntil(f func(uint32) bool) bool {
	nb := len(l.children)
	for blk := 0; blk < nb; blk++ {
		base := blk * BlockSize
		if c := l.children[blk]; c != nil {
			if blk > 0 && l.children[blk-1] == c {
				continue // merged run already visited
			}
			if !c.traverseUntil(f) {
				return false
			}
			continue
		}
		if l.typeOf(base) == tB {
			for i := 0; i < BlockSize && l.typeOf(base+i) == tB; i++ {
				if !f(l.data[base+i]) {
					return false
				}
			}
			continue
		}
		for i := 0; i < BlockSize; i++ {
			if l.typeOf(base+i) == tE {
				if !f(l.data[base+i]) {
					return false
				}
			}
		}
	}
	return true
}

// blocks yields the LIA's elements as contiguous ascending segments: child
// subtrees recurse (merged runs visited once), B-runs come out whole, and
// E entries are grouped into maximal runs of adjacent occupied slots.
//
// A block's 16 slot types live in one 32-bit lane of the types array
// (16 slots x 2 bits), so the walk decodes a whole block with a couple of
// register bit operations instead of 16 per-slot loads: a lane of zeros
// skips the block, and E-run boundaries fall out of trailing-zero counts
// on the lane's E-occupancy mask.
func (l *lia) blocks(yield func([]uint32) bool) bool {
	nb := len(l.children)
	for blk := 0; blk < nb; blk++ {
		base := blk * BlockSize
		if c := l.children[blk]; c != nil {
			if blk > 0 && l.children[blk-1] == c {
				continue // merged run already visited
			}
			if !c.blocks(yield) {
				return false
			}
			continue
		}
		tw := uint32(l.types[blk>>1] >> uint((blk&1)*32))
		if tw == 0 {
			continue // every slot unused
		}
		if tw&3 == tB {
			run := 1
			for run < BlockSize && (tw>>uint(run*2))&3 == tB {
				run++
			}
			if !yield(l.data[base : base+run : base+run]) {
				return false
			}
			continue
		}
		// E/U placement: emit maximal runs of consecutive occupied slots
		// (the model is monotone, so adjacent E entries are ascending).
		// em has bit 2i set iff slot i holds an E entry (type 01).
		em := tw & ^(tw >> 1) & 0x55555555
		for em != 0 {
			i := bits.TrailingZeros32(em) >> 1
			// First non-E slot at or after i ends the run; a fully E tail
			// makes nonE zero and TrailingZeros32 returns 32 → j = 16.
			nonE := ^(em >> uint(2*i)) & 0x55555555
			j := i + bits.TrailingZeros32(nonE)>>1
			if !yield(l.data[base+i : base+j : base+j]) {
				return false
			}
			if j >= BlockSize {
				break
			}
			em &= ^uint32(0) << uint(2*j)
		}
	}
	return true
}

// appendTo appends the LIA's elements to dst one contiguous run of blocks
// at a time, instead of one element per callback: under skew the hot
// vertices are LIA roots, and every snapshot re-materializes them.
func (l *lia) appendTo(dst []uint32) []uint32 {
	l.blocks(func(run []uint32) bool {
		dst = append(dst, run...)
		return true
	})
	return dst
}

func (l *lia) size() int { return l.total }

func (l *lia) min() uint32 {
	var m uint32
	l.traverseUntil(func(u uint32) bool { m = u; return false })
	return m
}

func (l *lia) memory() uint64 {
	m := uint64(len(l.data)*4+len(l.types)*8+len(l.children)*8) + 64
	var prev node
	for _, c := range l.children {
		if c != nil && c != prev {
			m += c.memory()
		}
		prev = c
	}
	return m
}

// indexMemory counts the learned-model bytes (two float64 coefficients) of
// this LIA plus its descendants' index overheads, the quantity Table 3
// attributes to "the model size of LIA".
func (l *lia) indexMemory() uint64 {
	m := uint64(16)
	var prev node
	for _, c := range l.children {
		if c != nil && c != prev {
			m += c.indexMemory()
		}
		prev = c
	}
	return m
}
