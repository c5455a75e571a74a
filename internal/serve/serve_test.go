package serve

import (
	"testing"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
)

// pairBatch returns the symmetric edge pair {(a,b),(b,a)} in columnar form.
func pairBatch(a, b uint32) (src, dst []uint32) {
	return []uint32{a, b}, []uint32{b, a}
}

func TestStoreBasicFlushAndViews(t *testing.T) {
	st := New(core.New(64, core.Config{Workers: 2}), Options{})
	defer st.Close()

	if st.Epoch() != 0 || st.NumEdges() != 0 {
		t.Fatalf("initial state: epoch=%d m=%d", st.Epoch(), st.NumEdges())
	}

	src, dst := pairBatch(1, 2)
	st.InsertBatch(src, dst)
	st.Flush()

	if st.NumEdges() != 2 {
		t.Fatalf("after flush m=%d, want 2", st.NumEdges())
	}
	if st.Epoch() != 1 {
		t.Fatalf("epoch=%d, want 1", st.Epoch())
	}

	v := st.View()
	if v.Epoch() != 1 || v.NumEdges() != 2 || v.Degree(1) != 1 {
		t.Fatalf("view: epoch=%d m=%d deg(1)=%d", v.Epoch(), v.NumEdges(), v.Degree(1))
	}
	if ns := v.Neighbors(1); len(ns) != 1 || ns[0] != 2 {
		t.Fatalf("view neighbors(1)=%v", ns)
	}

	// The view stays frozen while the store moves on.
	s2, d2 := pairBatch(3, 4)
	st.InsertBatch(s2, d2)
	st.Flush()
	if v.NumEdges() != 2 {
		t.Fatalf("pinned view changed: m=%d", v.NumEdges())
	}
	if st.NumEdges() != 4 {
		t.Fatalf("store m=%d, want 4", st.NumEdges())
	}
	v.Release()
	v.Release() // idempotent

	// A fresh view sees the new epoch.
	v2 := st.View()
	if v2.Epoch() != 2 || v2.NumEdges() != 4 {
		t.Fatalf("second view: epoch=%d m=%d", v2.Epoch(), v2.NumEdges())
	}
	v2.Release()
}

func TestStoreDeleteOrderingPreserved(t *testing.T) {
	st := New(core.New(16, core.Config{}), Options{})
	defer st.Close()

	src, dst := pairBatch(1, 2)
	st.InsertBatch(src, dst)
	st.DeleteBatch(src, dst)
	s2, d2 := pairBatch(3, 4)
	st.InsertBatch(s2, d2)
	st.Flush()

	if st.NumEdges() != 2 {
		t.Fatalf("m=%d, want 2 (insert+delete of (1,2) must cancel)", st.NumEdges())
	}
	if st.Degree(1) != 0 || st.Degree(3) != 1 {
		t.Fatalf("deg(1)=%d deg(3)=%d", st.Degree(1), st.Degree(3))
	}
}

// TestStoreCoalescing holds the writer mid-drain with the test hook so
// enqueues pile up deterministically past MaxQueue and merge.
func TestStoreCoalescing(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	testHookBeforeApply = func() { entered <- struct{}{}; <-gate }
	defer func() { testHookBeforeApply = nil }()

	st := New(core.New(256, core.Config{}), Options{MaxQueue: 2})

	// First batch: wait until the writer has taken it off the queue and
	// parked in the hook, so the queue below fills deterministically.
	src, dst := pairBatch(0, 1)
	st.InsertBatch(src, dst)
	<-entered

	// Fill the queue to its bound, then overflow it with same-op batches
	// that must merge into the newest entry.
	const extra = 8
	for i := uint32(1); i <= 2+extra; i++ {
		s, d := pairBatch(2*i, 2*i+1)
		st.InsertBatch(s, d)
	}

	// Unpark the writer for every applied batch.
	go func() {
		for {
			select {
			case gate <- struct{}{}:
			case <-st.done:
				return
			}
		}
	}()
	st.Flush()

	stats := st.Stats()
	if stats.CoalescedBatches != extra {
		t.Fatalf("coalesced=%d, want %d", stats.CoalescedBatches, extra)
	}
	// Merging must not lose updates: every pair is present.
	if want := uint64(2 * (3 + extra)); st.NumEdges() != want {
		t.Fatalf("m=%d, want %d", st.NumEdges(), want)
	}
	// Merged batches apply as fewer engine batches than enqueue calls.
	if stats.BatchesApplied >= 3+extra {
		t.Fatalf("applied=%d, expected < %d after merging", stats.BatchesApplied, 3+extra)
	}
	st.Close()
}

// TestStoreGroupPublish parks the writer on a first batch while k more
// batches and a Flush queue up behind it, then releases: the writer must
// apply the whole drained group and publish it as one snapshot, and the
// Flush must return only once every batch of the group is visible.
func TestStoreGroupPublish(t *testing.T) {
	const k = 5
	prev := obs.Enabled()
	obs.SetEnabled(true) // enqueue timestamps feed the visibility-lag histogram
	defer obs.SetEnabled(prev)

	// The hook parks the writer on its first apply (batch 0, drained
	// alone) and again on its second (the group's first batch, reached
	// only after batch 0's own publish). calls is writer-goroutine only.
	hold0, hold1 := make(chan struct{}), make(chan struct{})
	entered := make(chan struct{}, k+1)
	calls := 0
	testHookBeforeApply = func() {
		calls++
		entered <- struct{}{}
		switch calls {
		case 1:
			<-hold0
		case 2:
			<-hold1
		}
	}
	defer func() { testHookBeforeApply = nil }()

	st := New(core.New(64, core.Config{}), Options{})
	defer st.Close()
	release := func(c chan struct{}) {
		select {
		case <-c:
		default:
			close(c)
		}
	}
	defer release(hold1)
	defer release(hold0)

	st.InsertBatch(pairBatch(0, 1))
	<-entered
	for i := uint32(1); i <= k; i++ {
		st.InsertBatch(pairBatch(2*i, 2*i+1))
	}
	flushed := make(chan struct{})
	go func() {
		st.Flush()
		close(flushed)
	}()
	// Wait for the Flush sentinel to queue behind the k batches, so the
	// writer drains all k+1 entries as one slice.
	for st.QueueDepth() < k+1 {
		time.Sleep(time.Millisecond)
	}
	release(hold0)
	<-entered // batch 0 is published; the writer holds the drained group
	base := st.Stats()
	baseLag := obsVisibilityLag.Count()
	select {
	case <-flushed:
		t.Fatal("Flush returned before its group was applied")
	default:
	}
	release(hold1)
	<-flushed

	v := st.View()
	defer v.Release()
	if want := uint64(2 * (k + 1)); v.NumEdges() != want {
		t.Fatalf("after Flush m=%d, want %d", v.NumEdges(), want)
	}
	for u := uint32(0); u < 2*(k+1); u++ {
		if v.Degree(u) != 1 {
			t.Fatalf("after Flush deg(%d)=%d, want 1", u, v.Degree(u))
		}
	}
	if v.Epoch() != 2 { // batch 0's publish, then the group's
		t.Fatalf("epoch=%d, want 2", v.Epoch())
	}
	got := st.Stats()
	if d := got.BatchesApplied - base.BatchesApplied; d != k {
		t.Fatalf("group applied %d batches, want %d", d, k)
	}
	if d := got.SnapshotsPublished - base.SnapshotsPublished; d != 1 {
		t.Fatalf("group of %d batches published %d snapshots, want 1", k, d)
	}
	if d := obsVisibilityLag.Count() - baseLag; d != k {
		t.Fatalf("visibility lag observed %d times for the group, want %d", d, k)
	}
}

func TestStoreSnapshotReclaimAndReuse(t *testing.T) {
	st := New(core.New(128, core.Config{}), Options{MaxFree: 2})
	defer st.Close()

	// No readers pin anything, so each publish retires the previous epoch
	// and the next publish's reclaim scan recycles it.
	for i := uint32(0); i < 8; i++ {
		s, d := pairBatch(2*i, 2*i+1)
		st.InsertBatch(s, d)
		st.Flush()
	}
	stats := st.Stats()
	if stats.SnapshotsReclaimed == 0 {
		t.Fatal("no snapshots reclaimed despite drained epochs")
	}
	if stats.SnapshotReuses == 0 {
		t.Fatal("no snapshot buffers reused by the republish loop")
	}
	if stats.SnapshotsPublished != 9 { // epoch 0 + 8 batches
		t.Fatalf("published=%d, want 9", stats.SnapshotsPublished)
	}
}

func TestStorePinnedEpochBlocksReclaimUntilRelease(t *testing.T) {
	st := New(core.New(64, core.Config{}), Options{MaxFree: 8})
	defer st.Close()

	src, dst := pairBatch(1, 2)
	st.InsertBatch(src, dst)
	st.Flush()

	v := st.View() // pins epoch 1
	base := st.Stats().SnapshotsReclaimed

	s2, d2 := pairBatch(3, 4)
	st.InsertBatch(s2, d2)
	st.Flush() // retires epoch 1, but it is pinned

	if v.NumEdges() != 2 || v.Degree(1) != 1 {
		t.Fatalf("pinned view corrupted: m=%d deg(1)=%d", v.NumEdges(), v.Degree(1))
	}
	v.Release()

	// The next publish's reclaim scan drains the released epoch.
	s3, d3 := pairBatch(5, 6)
	st.InsertBatch(s3, d3)
	st.Flush()
	if st.Stats().SnapshotsReclaimed <= base {
		t.Fatal("released epoch was never reclaimed")
	}
}

func TestStoreUpdateAfterClosePanics(t *testing.T) {
	st := New(core.New(8, core.Config{}), Options{})
	st.Close()
	st.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("InsertBatch on closed Store did not panic")
		}
	}()
	st.InsertBatch([]uint32{0}, []uint32{1})
}

func TestStoreMismatchedBatchPanics(t *testing.T) {
	st := New(core.New(8, core.Config{}), Options{})
	defer st.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched src/dst did not panic")
		}
	}()
	st.InsertBatch([]uint32{0, 1}, []uint32{1})
}
