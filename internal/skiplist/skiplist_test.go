package skiplist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func collect(l *List) []uint32 {
	var out []uint32
	l.Traverse(func(u uint32) { out = append(out, u) })
	return out
}

func checkInvariants(t *testing.T, l *List) {
	t.Helper()
	var prev int64 = -1
	count := 0
	for b := l.head.next[0]; b != nil; b = b.next[0] {
		if len(b.keys) == 0 {
			t.Fatal("empty block linked")
		}
		if len(b.keys) > BlockCap {
			t.Fatalf("block over capacity: %d", len(b.keys))
		}
		for _, u := range b.keys {
			if int64(u) <= prev {
				t.Fatalf("order violated: %d after %d", u, prev)
			}
			prev = int64(u)
			count++
		}
	}
	if count != l.Len() {
		t.Fatalf("count %d != Len %d", count, l.Len())
	}
	// Every level must be a subsequence of level 0 in the same order.
	for lvl := 1; lvl < maxHeight; lvl++ {
		var lvlPrev int64 = -1
		for b := l.head.next[lvl]; b != nil; b = b.next[lvl] {
			if int64(b.keys[0]) <= lvlPrev {
				t.Fatalf("level %d unsorted", lvl)
			}
			lvlPrev = int64(b.keys[0])
		}
	}
}

func TestEmpty(t *testing.T) {
	l := New(1)
	if l.Len() != 0 || l.Has(5) || l.Delete(5) {
		t.Fatal("empty list misbehaves")
	}
}

func TestInsertHasDelete(t *testing.T) {
	l := New(2)
	if !l.Insert(10) || l.Insert(10) {
		t.Fatal("duplicate semantics")
	}
	if !l.Has(10) || l.Has(11) {
		t.Fatal("Has wrong")
	}
	if !l.Delete(10) || l.Delete(10) || l.Len() != 0 {
		t.Fatal("delete semantics")
	}
}

func TestManyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := New(4)
	model := map[uint32]bool{}
	for i := 0; i < 30000; i++ {
		u := uint32(rng.Intn(50000))
		switch rng.Intn(3) {
		case 0:
			if l.Delete(u) != model[u] {
				t.Fatalf("delete(%d) inconsistent", u)
			}
			delete(model, u)
		default:
			if l.Insert(u) == model[u] {
				t.Fatalf("insert(%d) inconsistent", u)
			}
			model[u] = true
		}
	}
	checkInvariants(t, l)
	got := collect(l)
	if len(got) != len(model) {
		t.Fatalf("size %d model %d", len(got), len(model))
	}
	for _, u := range got {
		if !model[u] {
			t.Fatalf("phantom %d", u)
		}
	}
}

func TestAscendingDescending(t *testing.T) {
	l := New(5)
	for i := uint32(0); i < 10000; i++ {
		l.Insert(i)
	}
	checkInvariants(t, l)
	l2 := New(6)
	for i := uint32(10000); i > 0; i-- {
		l2.Insert(i)
	}
	checkInvariants(t, l2)
}

func TestDeleteMinDrains(t *testing.T) {
	l := New(7)
	for _, u := range []uint32{40, 10, 30, 20} {
		l.Insert(u)
	}
	for _, want := range []uint32{10, 20, 30, 40} {
		if l.Min() != want || l.DeleteMin() != want {
			t.Fatalf("DeleteMin want %d", want)
		}
	}
	if l.Len() != 0 {
		t.Fatal("residue")
	}
}

// TestBlocksConcatenation checks that Blocks yields each skip-list block
// as one non-empty ascending segment, the segments concatenating to the
// sorted model under churn.
func TestBlocksConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := New(7)
	model := map[uint32]bool{}
	for i := 0; i < 6000; i++ {
		u := uint32(rng.Intn(3000))
		if rng.Intn(3) == 0 {
			l.Delete(u)
			delete(model, u)
		} else {
			l.Insert(u)
			model[u] = true
		}
	}
	want := make([]uint32, 0, len(model))
	for u := range model {
		want = append(want, u)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []uint32
	nblocks := 0
	if !l.Blocks(func(b []uint32) bool {
		if len(b) == 0 || len(b) > BlockCap {
			t.Fatalf("block of %d keys", len(b))
		}
		nblocks++
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
	if nblocks < 2 {
		t.Fatalf("%d keys in %d block(s)", len(want), nblocks)
	}
}

// TestBlocksEarlyStop stops the walk at several keys: Blocks must report
// the stop, never call yield again, and have yielded every key up to the
// stop key in order.
func TestBlocksEarlyStop(t *testing.T) {
	l := New(8)
	for i := uint32(0); i < 500; i++ {
		l.Insert(i)
	}
	for _, k := range []uint32{0, 99, 128, 499} {
		next, stopped := uint32(0), false
		done := l.Blocks(func(b []uint32) bool {
			if stopped {
				t.Fatalf("stop at %d: yield called after returning false", k)
			}
			for _, u := range b {
				if u != next {
					t.Fatalf("stop at %d: got %d, want %d", k, u, next)
				}
				if u == k {
					stopped = true
					return false
				}
				next++
			}
			return true
		})
		if done || !stopped {
			t.Fatalf("stop at %d: done=%v stopped=%v", k, done, stopped)
		}
	}
}

func TestAppendToAndMemory(t *testing.T) {
	l := New(9)
	for i := uint32(0); i < 1000; i++ {
		l.Insert(i * 3)
	}
	out := l.AppendTo(nil)
	if len(out) != 1000 || !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		t.Fatal("AppendTo wrong")
	}
	if l.Memory() < 4000 {
		t.Fatalf("memory %d implausible", l.Memory())
	}
}

func TestQuickAgainstModel(t *testing.T) {
	type op struct {
		Ins bool
		U   uint16
	}
	f := func(ops []op) bool {
		l := New(11)
		model := map[uint32]bool{}
		for _, o := range ops {
			u := uint32(o.U)
			if o.Ins {
				if l.Insert(u) == model[u] {
					return false
				}
				model[u] = true
			} else {
				if l.Delete(u) != model[u] {
					return false
				}
				delete(model, u)
			}
		}
		got := collect(l)
		if len(got) != len(model) || l.Len() != len(model) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
