package serve

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/wal"
)

// openDur opens a durable store with fast test-friendly defaults.
func openDur(t *testing.T, dir string, n uint32, shards int, dopt DurabilityOptions) *Store {
	t.Helper()
	dopt.Dir = dir
	if dopt.FsyncInterval == 0 {
		dopt.FsyncInterval = time.Millisecond
	}
	st, err := OpenDurable(n, core.Config{Workers: 2, Shards: shards}, Options{}, dopt)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return st
}

// edgeSet flattens a store's current view into a sorted (src,dst) list.
func edgeSet(st *Store) [][2]uint32 {
	v := st.View()
	defer v.Release()
	var out [][2]uint32
	for u := uint32(0); u < v.NumVertices(); u++ {
		for _, w := range v.Neighbors(u) {
			out = append(out, [2]uint32{u, w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func sameEdges(t *testing.T, got, want [][2]uint32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge[%d]=%v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 64, 2, DurabilityOptions{})
	if !st.Durable() {
		t.Fatal("store not durable")
	}
	r := rand.New(rand.NewSource(7))
	for b := 0; b < 20; b++ {
		src := make([]uint32, 8)
		dst := make([]uint32, 8)
		for i := range src {
			src[i] = uint32(r.Intn(64))
			dst[i] = uint32(r.Intn(64))
		}
		st.InsertBatch(src, dst)
	}
	st.DeleteBatch([]uint32{1}, []uint32{2})
	st.Flush()
	want := edgeSet(st)
	ws := st.Stats()
	if ws.WALRecords == 0 || ws.WALBytes == 0 {
		t.Fatalf("no WAL activity recorded: %+v", ws)
	}
	st.Close()

	// Reopen: everything flushed before Close must come back, with no
	// checkpoint ever written (pure replay).
	re := openDur(t, dir, 64, 2, DurabilityOptions{})
	defer re.Close()
	rst := re.Recovery()
	if rst.CheckpointLoaded {
		t.Fatal("unexpected checkpoint on pure-WAL reopen")
	}
	if rst.ReplayedRecords == 0 || rst.MaxLSN == 0 {
		t.Fatalf("nothing replayed: %+v", rst)
	}
	sameEdges(t, edgeSet(re), want, "recovered store")
}

func TestDurableCheckpointAndGC(t *testing.T) {
	dir := t.TempDir()
	// Small segments so rotation + GC actually trigger.
	st := openDur(t, dir, 32, 2, DurabilityOptions{SegmentBytes: 1 << 10})
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	for b := 0; b < 50; b++ {
		st.InsertBatch([]uint32{uint32(b % 32)}, []uint32{uint32((b + 1) % 32)})
	}
	st.Flush()
	want := edgeSet(st)
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ws := st.Stats()
	if ws.Checkpoints != 2 {
		t.Fatalf("checkpoints=%d, want 2", ws.Checkpoints)
	}
	if ws.SegmentsGCed == 0 {
		t.Fatal("no segments GCed after covering checkpoint")
	}
	st.Close()

	// Reopen: state should come from the checkpoint with nothing to replay
	// (everything logged was covered, and its segments are gone).
	re := openDur(t, dir, 32, 2, DurabilityOptions{})
	defer re.Close()
	rst := re.Recovery()
	if !rst.CheckpointLoaded {
		t.Fatal("checkpoint not loaded on reopen")
	}
	if rst.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records past a full checkpoint", rst.ReplayedRecords)
	}
	sameEdges(t, edgeSet(re), want, "checkpoint-recovered store")

	// Writes after the checkpoint replay on the next reopen.
	re.InsertBatch([]uint32{30}, []uint32{31})
	re.Flush()
	want2 := edgeSet(re)
	re.Close()
	re2 := openDur(t, dir, 32, 2, DurabilityOptions{})
	defer re2.Close()
	if re2.Recovery().ReplayedRecords == 0 {
		t.Fatal("post-checkpoint batch not replayed")
	}
	sameEdges(t, edgeSet(re2), want2, "checkpoint+tail store")
}

func TestDurableDeleteReplayOrder(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 16, 2, DurabilityOptions{})
	st.InsertBatch([]uint32{3, 3}, []uint32{4, 5})
	st.Flush()
	st.DeleteBatch([]uint32{3}, []uint32{4})
	st.InsertBatch([]uint32{3}, []uint32{6})
	st.Flush()
	want := edgeSet(st)
	st.Close()

	re := openDur(t, dir, 16, 2, DurabilityOptions{})
	defer re.Close()
	sameEdges(t, edgeSet(re), want, "insert/delete replay")
	v := re.View()
	if ns := v.Neighbors(3); len(ns) != 2 || ns[0] != 5 || ns[1] != 6 {
		t.Fatalf("neighbors(3)=%v after replay, want [5 6]", ns)
	}
	v.Release()
}

func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 16, 1, DurabilityOptions{CheckpointEvery: 10})
	for b := 0; b < 40; b++ {
		st.InsertBatch([]uint32{uint32(b % 16)}, []uint32{uint32((b + 3) % 16)})
		st.Flush() // defeat coalescing so every batch logs a record
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-checkpoint never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, "checkpoint")); err != nil {
		t.Fatalf("checkpoint dir missing: %v", err)
	}
}

func TestDurableShardCountChange(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 32, 4, DurabilityOptions{})
	for b := 0; b < 16; b++ {
		st.InsertBatch([]uint32{uint32(b)}, []uint32{uint32(b + 16)})
	}
	st.Flush()
	want := edgeSet(st)
	st.Close()

	// Reopen with fewer shards: records from all four old logs replay in
	// LSN order and re-scatter by the new uniform map.
	re := openDur(t, dir, 32, 2, DurabilityOptions{})
	sameEdges(t, edgeSet(re), want, "4->2 shard reopen")
	// A checkpoint must cover the stale shard-2/3 logs so they can be GCed.
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after reshard: %v", err)
	}
	re.Close()

	re2 := openDur(t, dir, 32, 2, DurabilityOptions{})
	defer re2.Close()
	sameEdges(t, edgeSet(re2), want, "post-reshard checkpoint reopen")
	if n := re2.Recovery().ReplayedRecords; n != 0 {
		t.Fatalf("replayed %d records past a reshard checkpoint", n)
	}
}

func TestDurableFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 8, 1, DurabilityOptions{Fsync: wal.FsyncAlways})
	st.InsertBatch([]uint32{1}, []uint32{2})
	st.Flush()
	if st.Stats().WALFsyncs == 0 {
		t.Fatal("fsync=always logged without syncing")
	}
	st.Close()
	re := openDur(t, dir, 8, 1, DurabilityOptions{})
	defer re.Close()
	v := re.View()
	if d := v.Degree(1); d != 1 {
		t.Fatalf("deg(1)=%d after reopen", d)
	}
	v.Release()
}

func TestCheckpointOnNonDurableStore(t *testing.T) {
	st := New(core.New(8, core.Config{Workers: 1}), Options{})
	defer st.Close()
	if err := st.Checkpoint(); err != ErrNotDurable {
		t.Fatalf("Checkpoint on in-memory store: %v, want ErrNotDurable", err)
	}
	if st.Durable() {
		t.Fatal("in-memory store claims durability")
	}
}

// TestUpdateOpsAreWALOps pins the identity logging and replay rely on: a
// queue entry's core.Op is written as the WAL record's op byte, and a
// replayed record's op byte is enqueued as the core.Op, with no mapping.
func TestUpdateOpsAreWALOps(t *testing.T) {
	if uint8(core.OpInsert) != wal.OpInsert || uint8(core.OpDelete) != wal.OpDelete {
		t.Fatalf("core ops (%d,%d) differ from WAL ops (%d,%d)",
			core.OpInsert, core.OpDelete, wal.OpInsert, wal.OpDelete)
	}
	if opFlush <= core.OpDelete {
		t.Fatalf("control op %d collides with an update op", opFlush)
	}
}
