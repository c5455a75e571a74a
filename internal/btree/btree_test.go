package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func collect(t *Tree) []uint32 {
	var out []uint32
	t.Traverse(func(u uint32) { out = append(out, u) })
	return out
}

func TestEmpty(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Has(1) || tr.Delete(1) {
		t.Fatal("empty tree misbehaves")
	}
}

func TestInsertAndHas(t *testing.T) {
	var tr Tree
	if !tr.Insert(5) || tr.Insert(5) {
		t.Fatal("duplicate semantics")
	}
	for i := uint32(0); i < 2000; i++ {
		tr.Insert(i * 3)
	}
	for i := uint32(0); i < 2000; i++ {
		if !tr.Has(i * 3) {
			t.Fatalf("missing %d", i*3)
		}
		if tr.Has(i*3 + 1) {
			t.Fatalf("phantom %d", i*3+1)
		}
	}
}

func TestSortedTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tr Tree
	model := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		u := uint32(rng.Intn(40000))
		if tr.Insert(u) == model[u] {
			t.Fatalf("insert(%d) disagrees with model", u)
		}
		model[u] = true
	}
	got := collect(&tr)
	if len(got) != len(model) || tr.Len() != len(model) {
		t.Fatalf("size mismatch: %d vs %d", len(got), len(model))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("unsorted at %d", i)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tr Tree
	var keys []uint32
	for i := 0; i < 5000; i++ {
		keys = append(keys, uint32(i*7))
		tr.Insert(uint32(i * 7))
	}
	for _, pi := range rng.Perm(len(keys)) {
		u := keys[pi]
		if !tr.Delete(u) {
			t.Fatalf("delete(%d) failed", u)
		}
		if tr.Delete(u) {
			t.Fatalf("double delete(%d)", u)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("residue: %d", tr.Len())
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := BulkLoad([]uint32{10, 20, 30})
	for _, u := range []uint32{5, 15, 25, 35} {
		if tr.Delete(u) {
			t.Fatalf("deleted absent %d", u)
		}
	}
	if tr.Len() != 3 {
		t.Fatal("len changed")
	}
}

func TestMinDeleteMin(t *testing.T) {
	tr := BulkLoad([]uint32{2, 4, 6, 8})
	for _, want := range []uint32{2, 4, 6, 8} {
		if tr.Min() != want || tr.DeleteMin() != want {
			t.Fatalf("DeleteMin want %d", want)
		}
	}
}

// TestBlocksConcatenation checks that Blocks re-segments the key set
// exactly under churn: non-empty ascending segments whose concatenation is
// the sorted model, with leaves yielded as multi-key runs.
func TestBlocksConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tr Tree
	model := map[uint32]bool{}
	for i := 0; i < 6000; i++ {
		u := uint32(rng.Intn(3000))
		if rng.Intn(3) == 0 {
			tr.Delete(u)
			delete(model, u)
		} else {
			tr.Insert(u)
			model[u] = true
		}
	}
	want := make([]uint32, 0, len(model))
	for u := range model {
		want = append(want, u)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []uint32
	longest := 0
	if !tr.Blocks(func(b []uint32) bool {
		if len(b) == 0 {
			t.Fatal("empty block")
		}
		longest = max(longest, len(b))
		got = append(got, b...)
		return true
	}) {
		t.Fatal("full walk reported an early stop")
	}
	if len(got) != len(want) {
		t.Fatalf("blocks hold %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocks diverge at %d: %d want %d", i, got[i], want[i])
		}
	}
	if longest < 2 {
		t.Fatal("no multi-key leaf block yielded")
	}
}

// TestBlocksEarlyStop stops the walk at several keys: Blocks must report
// the stop, never call yield again, and have yielded every key up to the
// stop key in order.
func TestBlocksEarlyStop(t *testing.T) {
	keys := make([]uint32, 500)
	for i := range keys {
		keys[i] = uint32(2 * i)
	}
	tr := BulkLoad(keys)
	for _, k := range []int{0, 1, 17, 250, 499} {
		seen, stopped := 0, false
		done := tr.Blocks(func(b []uint32) bool {
			if stopped {
				t.Fatalf("stop at %d: yield called after returning false", k)
			}
			for _, u := range b {
				if u != keys[seen] {
					t.Fatalf("stop at %d: key %d is %d, want %d", k, seen, u, keys[seen])
				}
				if seen == k {
					stopped = true
					return false
				}
				seen++
			}
			return true
		})
		if done || !stopped {
			t.Fatalf("stop at %d: done=%v stopped=%v", k, done, stopped)
		}
	}
}

func TestQuickAgainstModel(t *testing.T) {
	type op struct {
		Ins bool
		U   uint16
	}
	f := func(ops []op) bool {
		var tr Tree
		model := map[uint32]bool{}
		for _, o := range ops {
			u := uint32(o.U)
			if o.Ins {
				if tr.Insert(u) == model[u] {
					return false
				}
				model[u] = true
			} else {
				if tr.Delete(u) != model[u] {
					return false
				}
				delete(model, u)
			}
		}
		got := collect(&tr)
		if len(got) != len(model) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMemory(t *testing.T) {
	tr := BulkLoad(make([]uint32, 0))
	for i := uint32(0); i < 1000; i++ {
		tr.Insert(i)
	}
	if tr.Memory() < 4000 {
		t.Fatalf("memory %d implausible", tr.Memory())
	}
}
