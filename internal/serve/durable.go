package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/wal"
)

// ErrNotDurable is returned by Checkpoint on a Store opened without a
// durability directory.
var ErrNotDurable = errors.New("serve: store has no durability configured")

// ErrClosed is returned by Checkpoint on a Store that has been closed.
var ErrClosed = errors.New("serve: store closed")

// DurabilityOptions configures the WAL + checkpoint subsystem of a Store
// opened with OpenDurable.
type DurabilityOptions struct {
	// Dir is the durability directory (created if missing). Required.
	Dir string
	// Fsync is the group-commit policy for WAL appends. Default interval.
	Fsync wal.FsyncPolicy
	// FsyncInterval is the group-commit timer period for
	// wal.FsyncInterval. Default 50ms.
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation size. Default 16 MiB.
	SegmentBytes int64
	// CheckpointEvery, when > 0, triggers an automatic background
	// checkpoint (followed by segment GC) each time that many records have
	// been logged since the last one. 0 means checkpoints happen only via
	// explicit Checkpoint calls.
	CheckpointEvery int
	// Hook is the fault-injection hook threaded to the WAL (crash tests).
	Hook wal.Hook
}

// durability is a Store's durable-state bundle.
type durability struct {
	opt DurabilityOptions
	// log is the append side; nil while OpenDurable replays (so replayed
	// batches are not re-logged) and attached before the Store escapes.
	log *wal.Log
	// floor is the highest LSN recovery reflected into the initial state:
	// the max over the loaded checkpoint's watermarks and every scanned
	// record. Checkpoint watermarks are clamped up to it, because a shard
	// writer's appliedLSN restarts at 0 after recovery while its state
	// already contains everything at or below floor — possibly including
	// records from other shards' logs when the shard count changed.
	floor uint64
	// recovery summarizes what OpenDurable loaded and replayed.
	recovery wal.RecoveryStats

	sinceCkpt   atomic.Int64 // records logged since the last checkpoint
	ckptRunning atomic.Bool  // at most one auto-checkpoint in flight
	ckptMu      sync.Mutex   // serializes checkpoint writers

	checkpoints atomic.Uint64
	segsGCed    atomic.Uint64
}

// OpenDurable opens (creating or recovering) a durable Store over a fresh
// core.Graph of at least n vertices. Recovery loads the newest valid
// checkpoint, bulk-inserts its per-shard CSRs, replays WAL records past
// each shard log's watermark in global LSN order, waits for the replay to
// apply, and only then attaches the log for new appends — so recovery
// never re-logs what it replays, and a crash mid-recovery changes nothing
// but idempotent torn-tail truncation.
//
// The shard layout is not recovered: the store reopens on cfg.Shards
// shards with a uniform partition map (checkpointed edges are
// layout-independent, and replay re-scatters by the new map). A store
// that was rebalanced before the crash simply starts even again.
func OpenDurable(n uint32, cfg core.Config, opt Options, dopt DurabilityOptions) (*Store, error) {
	if dopt.Dir == "" {
		return nil, errors.New("serve: durability requires a directory")
	}
	start := time.Now()
	ck, err := wal.LoadLatestCheckpoint(dopt.Dir)
	if err != nil {
		return nil, err
	}
	if ck != nil && ck.N > n {
		n = ck.N
	}
	g := core.New(n, cfg)
	var ckEdges uint64
	if ck != nil {
		for i := range ck.Shards {
			src, dst := shardSnapEdges(&ck.Shards[i])
			if len(src) > 0 {
				g.InsertBatch(src, dst)
				ckEdges += uint64(len(src))
			}
		}
	}
	s := New(g, opt)
	s.dur = &durability{opt: dopt}
	wmOf := func(d int) uint64 {
		if ck != nil && d < len(ck.Watermarks) {
			return ck.Watermarks[d]
		}
		return 0
	}
	maxLSN, rst, err := wal.Replay(dopt.Dir, wmOf, dopt.Hook, func(r wal.Record) error {
		s.enqueue(core.Op(r.Op), r.Src, r.Dst)
		return nil
	})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("serve: recovery replay: %w", err)
	}
	s.Flush() // replayed batches are applied before the log opens
	floor := maxLSN
	if ck != nil {
		for _, wm := range ck.Watermarks {
			if wm > floor {
				floor = wm
			}
		}
	}
	log, err := wal.OpenLog(dopt.Dir, len(s.ws), floor, wal.Options{
		Fsync:         dopt.Fsync,
		FsyncInterval: dopt.FsyncInterval,
		SegmentBytes:  dopt.SegmentBytes,
		Hook:          dopt.Hook,
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	s.dur.floor = floor
	s.dur.log = log
	s.dur.recovery = wal.RecoveryStats{
		CheckpointLoaded:   ck != nil,
		CheckpointVertices: ckN(ck),
		CheckpointEdges:    ckEdges,
		ReplayedRecords:    rst.RecordsReplayed,
		ReplayedEdges:      rst.EdgesReplayed,
		Segments:           rst.Segments,
		TruncatedSegments:  rst.TruncatedSegments,
		TornBytes:          rst.TornBytes,
		MaxLSN:             maxLSN,
		DurationNanos:      time.Since(start).Nanoseconds(),
	}
	return s, nil
}

func ckN(ck *wal.Checkpoint) uint32 {
	if ck == nil {
		return 0
	}
	return ck.N
}

// shardSnapEdges expands one checkpointed shard CSR into parallel
// src/dst slices for a bulk insert (src holds global IDs: base + slot).
func shardSnapEdges(sh *wal.ShardSnap) (src, dst []uint32) {
	m := len(sh.Adj)
	if m == 0 {
		return nil, nil
	}
	src = make([]uint32, 0, m)
	for v := 0; v+1 < len(sh.Offs); v++ {
		for e := sh.Offs[v]; e < sh.Offs[v+1]; e++ {
			src = append(src, sh.Base+uint32(v))
		}
	}
	return src, sh.Adj
}

// Durable reports whether the Store was opened with a durability
// directory.
func (s *Store) Durable() bool { return s.dur != nil }

// Recovery returns what OpenDurable loaded and replayed (the zero value
// for a non-durable or freshly created store).
func (s *Store) Recovery() wal.RecoveryStats {
	if s.dur == nil {
		return wal.RecoveryStats{}
	}
	return s.dur.recovery
}

// Checkpoint pins a composed view and publishes it as a durable
// checkpoint (CSR per shard + partition layout + per-shard-log
// watermarks, atomic tmp+rename), then rotates the WAL and garbage-
// collects segments the checkpoint covers. Concurrent Checkpoint calls
// serialize; ingest and reads continue throughout — the only shared work
// is the view pin. Returns ErrNotDurable on an in-memory store.
func (s *Store) Checkpoint() error {
	d := s.dur
	if d == nil {
		return ErrNotDurable
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if s.closed.Load() {
		// Close waits on ckptMu before sealing the log; bailing here keeps
		// a checkpoint that lost that race from writing to the directory
		// after Close has returned it to the caller.
		return ErrClosed
	}

	v := s.View()
	defer v.Release()
	dirs := d.log.NumDirs()
	if len(s.ws) > dirs {
		dirs = len(s.ws)
	}
	wms := make([]uint64, dirs)
	ck := &wal.Checkpoint{
		N:          v.NumVertices(),
		Starts:     append([]uint32(nil), v.pm.Starts...),
		Watermarks: wms,
	}
	for i, e := range v.es {
		wm := e.lsn
		if d.floor > wm {
			// The snapshot reflects everything recovery replayed even when
			// this shard has applied no new batches since (see durability.floor).
			wm = d.floor
		}
		wms[i] = wm
		offs, adj := e.snap.CSR()
		ck.Shards = append(ck.Shards, wal.ShardSnap{Base: e.base, Offs: offs, Adj: adj})
	}
	for i := len(s.ws); i < dirs; i++ {
		// Stale log directories from an earlier, larger shard count: their
		// entire content predates recovery, hence is at or below floor.
		wms[i] = d.floor
	}
	// Sync before publishing: the checkpoint claims everything up to the
	// watermarks is durable, so the covering records must be on disk
	// before their segments become GC-eligible.
	if err := d.log.SyncAll(); err != nil {
		return err
	}
	if err := d.log.WriteCheckpoint(ck); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	d.sinceCkpt.Store(0)
	if err := d.log.Rotate(); err != nil {
		return err
	}
	n, err := d.log.GC(wms)
	d.segsGCed.Add(uint64(n))
	return err
}

// maybeAutoCheckpoint fires a background Checkpoint when the configured
// record budget since the last one is spent. At most one runs at a time;
// errors (including injected crashes) are absorbed — the next trigger or
// recovery picks up from the log.
func (d *durability) maybeAutoCheckpoint(s *Store) {
	if d.opt.CheckpointEvery <= 0 || d.log == nil {
		return
	}
	if d.sinceCkpt.Load() < int64(d.opt.CheckpointEvery) {
		return
	}
	if !d.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.ckptRunning.Store(false)
		if s.closed.Load() {
			return
		}
		s.Checkpoint()
	}()
}
