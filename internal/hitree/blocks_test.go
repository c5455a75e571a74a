package hitree

import (
	"math/rand"
	"testing"
)

// blocksCollect gathers the block path's elements, failing on contract
// violations (empty or internally unsorted blocks).
func blocksCollect(t *testing.T, tr *Tree) []uint32 {
	t.Helper()
	var out []uint32
	tr.Blocks(func(bs []uint32) bool {
		if len(bs) == 0 {
			t.Fatal("Blocks yielded an empty block")
		}
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("block unsorted at %d: %d after %d", i, bs[i], bs[i-1])
			}
		}
		out = append(out, bs...)
		return true
	})
	return out
}

func requireBlocksMatch(t *testing.T, tr *Tree) {
	t.Helper()
	want := collect(tr)
	got := blocksCollect(t, tr)
	if len(got) != len(want) {
		t.Fatalf("blocks yield %d elements, traversal %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocks diverge at %d: %d want %d", i, got[i], want[i])
		}
	}
}

// TestBlocksMatchTraverseUnderChurn churns trees through every node kind
// — plain array leaves, RIA leaves, LIA internal nodes with merged child
// runs and E/B slot mixes, rebuilds, and (DisableModel) bnode internals —
// checking block/traversal equivalence throughout.
func TestBlocksMatchTraverseUnderChurn(t *testing.T) {
	for _, disableModel := range []bool{false, true} {
		cfg := smallCfg()
		cfg.DisableModel = disableModel
		rng := rand.New(rand.NewSource(int64(43)))
		tr := New(cfg)
		live := make(map[uint32]bool)
		for step := 0; step < 4000; step++ {
			u := uint32(rng.Intn(8192))
			if live[u] && rng.Intn(3) == 0 {
				tr.Delete(u)
				delete(live, u)
			} else {
				tr.Insert(u)
				live[u] = true
			}
			if step%100 == 0 || step > 3900 {
				requireBlocksMatch(t, tr)
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		requireBlocksMatch(t, tr)
	}
}

// TestBlocksBulkLoadedLIA exercises the block walk over a large
// bulk-loaded tree whose root is an LIA (E/B slot typing, merged child
// runs) rather than churn-grown structure.
func TestBlocksBulkLoadedLIA(t *testing.T) {
	cfg := smallCfg()
	ns := make([]uint32, 0, 3000)
	rng := rand.New(rand.NewSource(7))
	next := uint32(0)
	for len(ns) < cap(ns) {
		next += uint32(1 + rng.Intn(5)) // uneven spacing stresses the model
		ns = append(ns, next)
	}
	tr := BulkLoad(ns, cfg)
	if !tr.IsLIARoot() {
		t.Fatalf("bulk load of %d elements did not produce an LIA root", len(ns))
	}
	requireBlocksMatch(t, tr)
}

// TestBlocksEarlyStop checks that a false return stops the walk.
func TestBlocksEarlyStop(t *testing.T) {
	cfg := smallCfg()
	tr := New(cfg)
	for i := 0; i < 2000; i++ {
		tr.Insert(uint32(i * 3))
	}
	calls := 0
	if tr.Blocks(func(bs []uint32) bool {
		calls++
		return false
	}) {
		t.Fatal("Blocks returned true after yield returned false")
	}
	if calls != 1 {
		t.Fatalf("yield called %d times after returning false", calls)
	}
}

// requireAppendToMatches checks Tree.AppendTo against Traverse, appending
// after an empty dst and after a non-empty prefix (with and without spare
// capacity), which must survive untouched.
func requireAppendToMatches(t *testing.T, tr *Tree) {
	t.Helper()
	want := collect(tr)
	prefix := []uint32{7, 3, 9}
	for _, dst := range [][]uint32{
		nil,
		prefix[:len(prefix):len(prefix)],
		append(make([]uint32, 0, len(prefix)+len(want)), prefix...),
	} {
		n := len(dst)
		got := tr.AppendTo(dst)
		if len(got) != n+len(want) {
			t.Fatalf("AppendTo after %d-element prefix gave %d elements, want %d", n, len(got), n+len(want))
		}
		for i := 0; i < n; i++ {
			if got[i] != prefix[i] {
				t.Fatalf("AppendTo clobbered prefix[%d]: %d want %d", i, got[i], prefix[i])
			}
		}
		for i, u := range want {
			if got[n+i] != u {
				t.Fatalf("AppendTo diverges at %d: %d want %d", i, got[n+i], u)
			}
		}
	}
}

// TestAppendToMatchesTraverse covers AppendTo on every node kind: array
// and RIA leaf roots, an LIA root holding E/U-placed blocks, B runs and a
// merged child run, and churned trees (LIA rebuilds and, with
// DisableModel, bnode internals).
func TestAppendToMatchesTraverse(t *testing.T) {
	cfg := liaCfg()
	arr := BulkLoad(seqKeys(10, 3), cfg)
	if _, ok := arr.root.(*leafArray); !ok {
		t.Fatalf("10 elements built a %T root, want an array leaf", arr.root)
	}
	requireAppendToMatches(t, arr)
	r := BulkLoad(seqKeys(40, 3), cfg)
	if _, ok := r.root.(*riaNode); !ok {
		t.Fatalf("40 elements built a %T root, want an RIA leaf", r.root)
	}
	requireAppendToMatches(t, r)

	var ns []uint32
	for i := 0; i < 400; i++ {
		ns = append(ns, uint32(i*5000)) // spread keys: E/U-placed blocks
	}
	for i := 0; i < 300; i++ {
		ns = append(ns, uint32(2_000_000+i*500)) // overflows adjacent blocks: merged child run
	}
	for c := 0; c < 20; c++ {
		for i := 0; i < 8; i++ {
			ns = append(ns, uint32(2_200_000+c*100_000+i*1000)) // conflicting clusters: B runs
		}
	}
	tr := BulkLoad(ns, cfg)
	l, ok := tr.root.(*lia)
	if !ok {
		t.Fatalf("%d elements built a %T root, want an LIA", len(ns), tr.root)
	}
	kinds := map[int]int{}
	merged := 0
	for blk := range l.children {
		kinds[l.blockKind(blk)]++
		if blk > 0 && l.children[blk] != nil && l.children[blk] == l.children[blk-1] {
			merged++
		}
	}
	if kinds[tE] == 0 || kinds[tB] == 0 || kinds[tC] == 0 || merged == 0 {
		t.Fatalf("LIA root lacks a block kind: E/U %d, B %d, child %d, merged %d", kinds[tE], kinds[tB], kinds[tC], merged)
	}
	requireAppendToMatches(t, tr)

	for _, disableModel := range []bool{false, true} {
		churnCfg := smallCfg()
		churnCfg.DisableModel = disableModel
		rng := rand.New(rand.NewSource(44))
		churned := New(churnCfg)
		for step := 0; step < 3000; step++ {
			u := uint32(rng.Intn(8192))
			if churned.Has(u) && rng.Intn(3) == 0 {
				churned.Delete(u)
			} else {
				churned.Insert(u)
			}
			if step%250 == 0 {
				requireAppendToMatches(t, churned)
			}
		}
		requireAppendToMatches(t, churned)
	}
}
