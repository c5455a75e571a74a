// Package skiplist implements an unrolled skip list of uint32 keys: sorted
// blocks of up to BlockCap elements linked by a randomized tower index.
// It is the neighborhood structure of the Sortledton-style baseline
// (Fuchs et al., VLDB '22), which the paper's §6.1 compares against
// PaC-tree: block-based skip lists keep elements sorted with cheap local
// inserts, but searches hop across towers and blocks — more pointer
// chasing per lookup than an indexed array, which is the behavior the
// comparison measures.
package skiplist

// BlockCap is the maximum keys per block; Sortledton uses blocks of a few
// cache lines.
const BlockCap = 128

// maxHeight bounds tower height (2^20 blocks is far beyond any vertex).
const maxHeight = 20

type node struct {
	keys []uint32 // sorted, 1..BlockCap entries (head: possibly empty)
	next []*node  // tower; len is the node's height
}

// List is an unrolled skip list. The zero value is not usable; call New.
type List struct {
	head *node // sentinel with empty keys and full-height tower
	n    int
	rnd  uint64
}

// New returns an empty list. Tower heights are drawn from a deterministic
// per-list xorshift stream seeded by seed, keeping tests reproducible.
func New(seed uint64) *List {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &List{
		head: &node{next: make([]*node, maxHeight)},
		rnd:  seed,
	}
}

// Len returns the number of keys stored.
func (l *List) Len() int { return l.n }

// randHeight draws a geometric(1/2) height in [1, maxHeight].
func (l *List) randHeight() int {
	l.rnd ^= l.rnd << 13
	l.rnd ^= l.rnd >> 7
	l.rnd ^= l.rnd << 17
	h := 1
	for v := l.rnd; v&1 == 1 && h < maxHeight; v >>= 1 {
		h++
	}
	return h
}

// findPreds fills preds with, per level, the last node whose first key is
// < u (so u belongs in preds[0] or its successor-block boundary).
func (l *List) findPreds(u uint32, preds *[maxHeight]*node) *node {
	x := l.head
	for lvl := maxHeight - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && x.next[lvl].keys[0] < u {
			x = x.next[lvl]
		}
		preds[lvl] = x
	}
	return x
}

// blockFor returns the block that does or should contain u: the last block
// starting at a key <= u, or the first block when u precedes everything.
func (l *List) blockFor(u uint32, preds *[maxHeight]*node) *node {
	x := l.findPreds(u, preds)
	// x is the last block with first key < u; u may equal the next
	// block's first key.
	if nx := x.next[0]; nx != nil && nx.keys[0] == u {
		return nx
	}
	if x == l.head {
		return x.next[0] // possibly nil (empty list)
	}
	return x
}

func search(keys []uint32, u uint32) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == u
}

// Has reports whether u is present.
func (l *List) Has(u uint32) bool {
	var preds [maxHeight]*node
	b := l.blockFor(u, &preds)
	if b == nil {
		return false
	}
	_, found := search(b.keys, u)
	return found
}

// Insert adds u, reporting whether it was absent.
func (l *List) Insert(u uint32) bool {
	var preds [maxHeight]*node
	b := l.blockFor(u, &preds)
	if b == nil {
		// Empty list: first block.
		nb := &node{keys: append(make([]uint32, 0, 8), u), next: make([]*node, l.randHeight())}
		l.link(nb, &preds)
		l.n++
		return true
	}
	i, found := search(b.keys, u)
	if found {
		return false
	}
	b.keys = append(b.keys, 0)
	copy(b.keys[i+1:], b.keys[i:])
	b.keys[i] = u
	l.n++
	if len(b.keys) > BlockCap {
		l.split(b)
	}
	return true
}

// link splices nb after the predecessors recorded in preds.
func (l *List) link(nb *node, preds *[maxHeight]*node) {
	for lvl := 0; lvl < len(nb.next); lvl++ {
		nb.next[lvl] = preds[lvl].next[lvl]
		preds[lvl].next[lvl] = nb
	}
}

// split halves an overfull block, giving the upper half a fresh tower.
func (l *List) split(b *node) {
	mid := len(b.keys) / 2
	upper := make([]uint32, len(b.keys)-mid)
	copy(upper, b.keys[mid:])
	b.keys = b.keys[:mid]
	nb := &node{keys: upper, next: make([]*node, l.randHeight())}
	var preds [maxHeight]*node
	l.findPreds(upper[0], &preds)
	l.link(nb, &preds)
}

// Delete removes u, reporting whether it was present. A block is unlinked
// while its last key is still in place, so tower comparisons stay valid.
func (l *List) Delete(u uint32) bool {
	var preds [maxHeight]*node
	b := l.blockFor(u, &preds)
	if b == nil {
		return false
	}
	i, found := search(b.keys, u)
	if !found {
		return false
	}
	if len(b.keys) == 1 {
		l.unlink(b)
	}
	b.keys = append(b.keys[:i], b.keys[i+1:]...)
	l.n--
	return true
}

// unlink removes block b (which still holds its first key) from every
// level: findPreds stops exactly before the first block starting at
// b.keys[0], which is b itself wherever its tower reaches.
func (l *List) unlink(b *node) {
	var preds [maxHeight]*node
	l.findPreds(b.keys[0], &preds)
	for lvl := 0; lvl < len(b.next); lvl++ {
		if preds[lvl].next[lvl] == b {
			preds[lvl].next[lvl] = b.next[lvl]
		}
	}
}

// Min returns the smallest key; l must be non-empty.
func (l *List) Min() uint32 { return l.head.next[0].keys[0] }

// DeleteMin removes and returns the smallest key; l must be non-empty.
func (l *List) DeleteMin() uint32 {
	b := l.head.next[0]
	u := b.keys[0]
	if len(b.keys) == 1 {
		l.unlink(b)
	}
	b.keys = b.keys[1:]
	l.n--
	return u
}

// Traverse applies f to every key in ascending order.
func (l *List) Traverse(f func(u uint32)) {
	for b := l.head.next[0]; b != nil; b = b.next[0] {
		for _, u := range b.keys {
			f(u)
		}
	}
}

// Blocks yields each block's keys in ascending order as one non-empty
// segment aliasing the block's storage, stopping when yield returns false;
// it reports whether the walk ran to completion. Segments are valid only
// until yield returns and must not be mutated.
func (l *List) Blocks(yield func(block []uint32) bool) bool {
	for b := l.head.next[0]; b != nil; b = b.next[0] {
		if !yield(b.keys[:len(b.keys):len(b.keys)]) {
			return false
		}
	}
	return true
}

// AppendTo appends every key in ascending order to dst.
func (l *List) AppendTo(dst []uint32) []uint32 {
	for b := l.head.next[0]; b != nil; b = b.next[0] {
		dst = append(dst, b.keys...)
	}
	return dst
}

// Memory returns estimated resident bytes.
func (l *List) Memory() uint64 {
	var m uint64 = 64
	for b := l.head.next[0]; b != nil; b = b.next[0] {
		m += uint64(cap(b.keys)*4+len(b.next)*8) + 48
	}
	return m
}
