// Package serve is LSGraph's concurrent serving layer: a sharded
// writer / multi-reader Store that lets batch updates and analytics run at
// the same time — the paper's interleaved streaming setting (§6), which
// the bare core.Graph cannot provide because its updates require exclusive
// access.
//
// Design, in one paragraph: the vertex space is partitioned into S
// contiguous shards (core.Config.Shards, default 1), each drained by its
// own writer goroutine. InsertBatch/DeleteBatch scatter a mixed batch by
// source vertex and enqueue each shard's slice into that shard's bounded
// queue, so the engine's per-vertex exclusivity contract holds by
// construction — a vertex lives in exactly one shard, and one goroutine
// owns each shard. Under backpressure a queue degrades gracefully by
// merging same-op batches instead of blocking callers. A shard writer
// drains its whole queue at once, applies every batch in the drained
// slice, and only then flattens its own shard into an immutable local
// core.Snapshot (reusing a reclaimed snapshot's buffers when capacity
// allows) and publishes it with one atomic pointer swap: one publish per
// drained queue slice, with Flush and rebalance entries as extra publish
// points, so the flatten cost is paid per group of batches rather than
// per batch. Readers compose a view by pinning every shard's current
// snapshot with the epoch-refcount protocol — two atomic adds per shard —
// run any analytics kernel on the composed view, and release; a retired
// snapshot's buffers are recycled only once its epoch has drained. Aspen
// gets this concurrency from purely functional trees and LSMGraph from
// per-range versioned multi-level CSRs; the Store gets it from
// epoch-pinned CSR snapshots over the locality-centric live shards.
//
// Consistency model: each pinned shard snapshot is an exact prefix of that
// shard's applied batch sequence (a group publish exposes several batches
// at once, never part of one or out of order), and enqueue order is
// preserved per shard, so a composed view is "per-shard consistent": all
// edges of one source vertex always appear atomically, inserts/deletes of
// the same edge are never reordered, and the view's epoch (the sum of
// shard epochs) is monotone across acquires. What the composed view does
// not promise is a single global cut across shards — two edges routed to
// different shards may become visible in either order, the price of
// parallel ingest. With Shards=1 the old single-writer semantics hold
// bit for bit.
//
// Memory ordering: correctness of reclamation rests on Go's
// sequentially-consistent atomics. A reader acquires with
//
//	e := cur.Load(); e.refs.Add(1); if cur.Load() == e { pinned }
//
// and the writer recycles a retired e only after observing refs == 0
// *after* the swap that retired it. If the writer's refs read missed a
// concurrent Add, that Add is ordered after the read, hence after the
// swap, so the reader's recheck load sees the new current snapshot, fails,
// decrements, and retries without ever dereferencing the recycled buffers.
// A retired snapshot can never pass the recheck because each publish
// allocates a fresh epoch descriptor and epochs only move forward.
//
// Dynamic partitioning: vertex→shard routing is an immutable, epoch-
// versioned core.PartitionMap rather than a fixed span. A boundary move
// (Rebalance / MoveBoundary, rebalance.go) quiesces only the two affected
// shard writers via a rendezvous control entry in their queues, splices
// the transferred vertex blocks between the two shards, and publishes the
// successor map plus both shards' new snapshots through the same
// atomic-swap protocol as ordinary publishes. Readers pin map+snapshots
// with a retry loop (View) so a view acquired before, during, or after a
// move is always internally consistent; views pinned on the old map keep
// reading the old layout until released. There is no stop-the-world
// anywhere: unaffected writers and all readers proceed throughout.
//
// Vertex-space growth: enqueue computes the batch's required bound
// (1 + max referenced ID) and reserves it in the logical vertex space
// immediately (core.Graph.ReserveVertices, an atomic max); the owning
// shard writer materializes storage with Shard.EnsureVertices before
// applying. Reserving at enqueue time guarantees that by the time any
// snapshot containing an edge (v,u) is published, every composed view
// pinning it reports NumVertices > u — kernels indexing per-vertex arrays
// by neighbor ID never see an out-of-range ID, even though u's own shard
// may not have published (u simply still has degree 0 there).
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/obs"
	"lsgraph/internal/trace"
	"lsgraph/internal/wal"
)

// Options configures a Store.
type Options struct {
	// MaxQueue is the soft bound on queued update batches per shard. Once
	// a shard's queue holds MaxQueue entries, a new batch whose op matches
	// the newest queued entry is merged into it (set semantics make
	// concatenation of same-op batches equivalent to applying them back to
	// back) instead of growing the queue; callers are never blocked.
	// Default 64.
	MaxQueue int
	// MaxFree bounds the pool of reclaimed snapshots each shard writer
	// keeps for buffer reuse by the republish loop. Default 4.
	MaxFree int
	// AutoRebalance, when > 0, starts a background rebalancer goroutine
	// that watches the per-shard routed-edge counters and triggers
	// Rebalance whenever the heaviest shard's load exceeds AutoRebalance
	// times its fair share (so 1.5 means "act at 50% over fair"). 0
	// disables automatic rebalancing; Rebalance can still be called
	// explicitly.
	AutoRebalance float64
	// AutoInterval is how often the auto-rebalancer checks the skew.
	// Default 1s; ignored when AutoRebalance is 0.
	AutoInterval time.Duration
}

func (o *Options) sanitize() {
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.MaxFree <= 0 {
		o.MaxFree = 4
	}
	if o.AutoInterval <= 0 {
		o.AutoInterval = time.Second
	}
}

// Control ops queued for a shard writer, numbered after the update ops
// (core.OpInsert, core.OpDelete) that update entries carry. opFlush is a
// sentinel whose position in the queue marks a Flush call's happens-after
// point. opRebalance is a control entry appended to both shard writers
// affected by a boundary move; it marks the queue position at which the
// shard's routing changes (see rebalance.go).
const (
	opFlush = core.OpDelete + 1 + iota
	opRebalance
)

// pending is one queued update batch (or flush sentinel). src/dst are
// owned by the Store: enqueue copies (or scatters) the caller's slices so
// the caller may reuse its buffers immediately. bound is the vertex-space
// size the batch requires (1 + max referenced ID); the writer ensures it
// before applying.
type pending struct {
	op       core.Op
	src, dst []uint32
	bound    uint32
	batch    uint64        // flight-recorder batch ID (0 when tracing is off)
	enq      int64         // trace-timeline enqueue timestamp; 0 when obs and tracing are off
	lsn      uint64        // highest WAL LSN this entry covers (0 when durability is off)
	done     chan struct{} // flush sentinel only
	reb      *rebalanceOp  // rebalance control entry only
}

// epochSnap is one published shard snapshot with its epoch and reader
// refcount. refs counts pinned readers; the snapshot's buffers are
// recycled only after it has been retired (a newer epoch swapped in) and
// refs has drained to zero. base and mapEpoch record the shard's range
// start and the partition-map epoch it was published under: readers
// compare mapEpoch against their captured map's RangeEpoch to reject
// mixed map/snapshot states during a boundary move (see rebalance.go).
// lsn records the shard writer's applied-LSN watermark at publish time:
// every WAL record of this shard's log with an LSN at or below it is
// reflected in snap, and none above it are. It is what makes a pinned
// snapshot a durable cut a checkpoint can anchor replay to (durable.go).
type epochSnap struct {
	snap     *core.Snapshot
	epoch    uint64
	base     uint32
	mapEpoch uint64
	lsn      uint64
	refs     atomic.Int64
}

// testHookBeforeApply, when non-nil, runs on a writer goroutine before
// each batch is applied. Tests use it to hold a writer mid-drain and
// exercise queue coalescing deterministically.
var testHookBeforeApply func()

// shardWriter is one shard's update pipeline: a bounded queue drained by
// one goroutine that applies batches to its core.Shard and republishes the
// shard's snapshot once per drained group of batches (see run). All
// mutable state except the queue is owned by the writer goroutine.
type shardWriter struct {
	s     *Store
	shard core.Shard
	idx   int

	mu     sync.Mutex
	queue  []pending
	closed bool

	wake chan struct{} // cap 1; tokens coalesce
	done chan struct{} // closed when this writer exits

	cur atomic.Pointer[epochSnap]

	// Writer-goroutine-owned: snapshots retired but not yet drained, and
	// drained snapshots retained for buffer reuse.
	retired []*epochSnap
	free    []*core.Snapshot

	// appliedLSN is the highest WAL LSN among batches this writer has
	// applied. Written by the writer goroutine before each publish and read
	// by buildSnap — writer-owned like retired/free (the rebalance executor
	// reads it only while both affected writers are parked, the same
	// happens-before argument that makes touching free safe there).
	appliedLSN uint64
}

// Store is the sharded-writer / multi-reader serving layer over one
// core.Graph. Updates (InsertBatch, DeleteBatch) enqueue and return
// immediately; reads always succeed against the most recently published
// shard snapshots. Store implements engine.Graph and engine.Update, so
// every analytics kernel and the benchmark harness run on a live Store
// unmodified.
//
// Store's own read methods pin and release the owning shard's current
// snapshot per call: they are individually consistent but successive calls
// may observe different epochs. A kernel that needs one coherent graph for
// its whole run should acquire a View and run against that.
type Store struct {
	g   *core.Graph
	opt Options

	ws     []*shardWriter
	closed atomic.Bool
	done   chan struct{} // closed when every shard writer has exited

	// queued counts entries across all shard queues (including flush
	// sentinels); it backs the aggregate queue-depth gauge, which would
	// otherwise flap between single shards' depths.
	queued atomic.Int64

	// routeMap is the partition map enqueue scatters by. It is swapped to
	// the successor map at control-entry install time — before the splice —
	// under rebMu's write lock, so every batch is routed wholly by one map:
	// batches ahead of a shard's control entry by the old map, behind it by
	// the new (see rebalance.go for why either is correct at apply time).
	routeMap atomic.Pointer[core.PartitionMap]
	// viewMap is the partition map readers compose views by. It is swapped
	// only after the splice has produced both affected shards' new
	// snapshots, just before their cur pointers swap, so the retry-pin
	// protocol in View/pinFor always converges to a consistent map+snapshot
	// pair.
	viewMap atomic.Pointer[core.PartitionMap]
	// rebMu orders enqueue's scatter+append critical section (read side)
	// against control-entry installation (write side).
	rebMu sync.RWMutex
	// rebalanceMu serializes whole rebalance operations.
	rebalanceMu sync.Mutex
	// routed counts edges routed to each shard since construction — the
	// always-on load signal the rebalance policy reads (unlike the obs
	// gauges, which are off by default).
	routed []atomic.Uint64

	// dur is the durability state (WAL + checkpoints), nil for a purely
	// in-memory Store. Set before the Store is visible to callers
	// (New via OpenDurable); the log handle inside it is attached only
	// after recovery replay, so replayed batches are never re-logged.
	dur *durability

	autoStop chan struct{} // closes to stop the auto-rebalancer
	autoDone chan struct{} // closed when the auto-rebalancer exits

	rebStats struct {
		rebalances    atomic.Uint64
		boundaryMoves atomic.Uint64
		movedVertices atomic.Uint64
		movedEdges    atomic.Uint64
	}

	stats struct {
		batchesApplied     atomic.Uint64
		edgesEnqueued      atomic.Uint64
		coalescedBatches   atomic.Uint64
		snapshotsPublished atomic.Uint64
		snapshotsReclaimed atomic.Uint64
		snapshotReuses     atomic.Uint64
	}
}

// Compile-time interface checks: kernels written against engine.Graph run
// on a live Store or a pinned View without modification.
var (
	_ engine.Graph  = (*Store)(nil)
	_ engine.Update = (*Store)(nil)
	_ engine.Graph  = (*View)(nil)
)

// New wraps g in a Store and starts one writer goroutine per shard
// (g's core.Config.Shards; 1 unless configured otherwise). The Store takes
// ownership of g: the caller must not call any method on g afterwards.
// The initial state of every shard is published immediately as its epoch
// 0, so reads never wait for a first batch.
func New(g *core.Graph, opt Options) *Store {
	opt.sanitize()
	s := &Store{
		g:    g,
		opt:  opt,
		done: make(chan struct{}),
	}
	pm := g.PartitionMap()
	s.routeMap.Store(pm)
	s.viewMap.Store(pm)
	s.routed = make([]atomic.Uint64, g.NumShards())
	s.ws = make([]*shardWriter, g.NumShards())
	for i := range s.ws {
		w := &shardWriter{
			s:     s,
			shard: g.Shard(i),
			idx:   i,
			wake:  make(chan struct{}, 1),
			done:  make(chan struct{}),
		}
		w.publish(0)
		s.ws[i] = w
	}
	for _, w := range s.ws {
		go w.run()
	}
	go func() {
		for _, w := range s.ws {
			<-w.done
		}
		close(s.done)
	}()
	if opt.AutoRebalance > 0 && len(s.ws) > 1 {
		s.autoStop = make(chan struct{})
		s.autoDone = make(chan struct{})
		go s.autoRebalance()
	}
	if obs.Enabled() {
		obsMapEpoch.Set(int64(pm.Epoch))
	}
	return s
}

// Shards returns the number of shard writer pipelines.
func (s *Store) Shards() int { return len(s.ws) }

// InsertBatch enqueues the directed edges (src[i] -> dst[i]) for
// insertion and returns without waiting for them to apply. The slices are
// copied; the caller may reuse them immediately. Call Flush to wait for
// the batch to become visible to readers.
func (s *Store) InsertBatch(src, dst []uint32) { s.enqueue(core.OpInsert, src, dst) }

// DeleteBatch enqueues the directed edges for deletion, with the same
// asynchronous contract as InsertBatch. Enqueue order is preserved per
// shard, so an insert followed by a delete of the same edge leaves it
// absent (the two land in the same shard's queue: routing is by source).
func (s *Store) DeleteBatch(src, dst []uint32) { s.enqueue(core.OpDelete, src, dst) }

func (s *Store) enqueue(op core.Op, src, dst []uint32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("serve: src/dst length mismatch (%d vs %d); every edge needs both endpoints",
			len(src), len(dst)))
	}
	if s.closed.Load() {
		panic("serve: update on closed Store")
	}
	s.stats.edgesEnqueued.Add(uint64(len(src)))
	// enq anchors the enqueue-to-publish visibility-lag measurement; it is
	// taken whenever either consumer (obs histogram, flight recorder) is on.
	var enq int64
	var batch uint64
	if obs.Enabled() || trace.Enabled() {
		enq = trace.Now()
	}
	if trace.Enabled() {
		batch = trace.NextBatchID()
	}
	if len(s.ws) == 1 {
		// Single shard: one copy pass that also finds the required bound.
		var bound uint32
		cs := make([]uint32, len(src))
		cd := make([]uint32, len(dst))
		for i := range src {
			cs[i], cd[i] = src[i], dst[i]
			if src[i]+1 > bound {
				bound = src[i] + 1
			}
			if dst[i]+1 > bound {
				bound = dst[i] + 1
			}
		}
		s.g.ReserveVertices(bound)
		s.routed[0].Add(uint64(len(src)))
		s.ws[0].enqueue(op, cs, cd, bound, batch, enq)
		if batch != 0 {
			trace.Span(trace.PhaseEnqueue, -1, batch, 0, uint64(len(src)), enq)
		}
		if d := s.dur; d != nil {
			d.maybeAutoCheckpoint(s)
		}
		return
	}
	// The whole scatter+append section runs under rebMu's read lock: a
	// concurrent boundary move takes the write lock to swap routeMap and
	// install its control entries, so every batch lands in the queues
	// routed wholly by one map, cleanly before or after the control entry.
	s.rebMu.RLock()
	pm := s.routeMap.Load()
	trScatter := trace.Start()
	parts, bound := s.g.ScatterBatchWith(pm, src, dst)
	trace.Span(trace.PhaseScatter, -1, batch, 0, uint64(len(src)), trScatter)
	s.g.ReserveVertices(bound)
	if obs.Enabled() {
		skew := shardSkewPct(parts)
		obsShardSkew.Set(skew)
	}
	for i, part := range parts {
		if len(part.Src) == 0 {
			continue
		}
		s.routed[i].Add(uint64(len(part.Src)))
		if obs.Enabled() {
			obsShardRouted.AddShard(i, uint64(len(part.Src)))
		}
		s.ws[i].enqueue(op, part.Src, part.Dst, bound, batch, enq)
	}
	s.rebMu.RUnlock()
	if batch != 0 {
		trace.Span(trace.PhaseEnqueue, -1, batch, 0, uint64(len(src)), enq)
	}
	if d := s.dur; d != nil {
		d.maybeAutoCheckpoint(s)
	}
}

// shardSkewPct returns how far the largest routed part deviates from a
// perfectly even split, in percent of the fair share (0 = even, 100 = one
// shard got twice its fair share, 700 = a shard of eight got everything).
// The value is unclamped so heavy skew — hubs at many times fair share —
// is visible instead of saturating the gauge.
func shardSkewPct(parts []core.SubBatch) int64 {
	total, max := 0, 0
	for _, p := range parts {
		total += len(p.Src)
		if len(p.Src) > max {
			max = len(p.Src)
		}
	}
	if total == 0 {
		return 0
	}
	fair := float64(total) / float64(len(parts))
	skew := (float64(max)/fair - 1) * 100
	if skew < 0 {
		skew = 0
	}
	return int64(skew)
}

// enqueue adds an owned batch to this shard's queue, merging under
// backpressure.
func (w *shardWriter) enqueue(op core.Op, src, dst []uint32, bound uint32, batch uint64, enq int64) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		panic("serve: update on closed Store")
	}
	// Reserve the batch's WAL slot before it is queued, under the same
	// lock, so each shard's WAL order equals its queue (= apply) order;
	// the write syscall itself runs after the queue lock is released (the
	// slot holds the shard log locked until then, so nothing can slip in
	// between and stall-free dequeues continue meanwhile). An append
	// error (disk full, injected crash) does not fail the enqueue: the
	// store keeps serving in memory and surfaces degraded durability
	// through Stats.WALAppendErrors. The record's op byte is the core.Op
	// itself (TestUpdateOpsAreWALOps), so replay re-enqueues it unchanged.
	var lsn uint64
	var app wal.Appender
	if d := w.s.dur; d != nil && d.log != nil {
		app = d.log.Begin(w.idx, uint8(op), batch, src, dst)
		lsn = app.LSN()
		d.sinceCkpt.Add(1)
	}
	if n := len(w.queue); n >= w.s.opt.MaxQueue && w.queue[n-1].op == op {
		// Backpressure: merge into the newest queued batch of the same op
		// rather than growing the queue or blocking the caller. The merged
		// entry keeps its own batch ID and enqueue timestamp: its oldest
		// edges are the ones whose visibility lag the measurement is after.
		// It takes the max LSN: the merged application covers both records,
		// and all earlier LSNs of this shard are already queued ahead of it.
		last := &w.queue[n-1]
		last.src = append(last.src, src...)
		last.dst = append(last.dst, dst...)
		if bound > last.bound {
			last.bound = bound
		}
		if lsn > last.lsn {
			last.lsn = lsn
		}
		w.s.stats.coalescedBatches.Add(1)
		if obs.Enabled() {
			obsCoalesced.Inc()
		}
		trace.Instant(trace.PhaseCoalesce, w.idx, last.batch, uint64(len(src)))
	} else {
		w.queue = append(w.queue, pending{op: op, src: src, dst: dst, bound: bound, batch: batch, enq: enq, lsn: lsn})
		w.s.queued.Add(1)
	}
	depth := len(w.queue)
	w.mu.Unlock()
	// Completing the reserved write here, before returning, preserves the
	// acknowledgement contract: by the time the caller sees the enqueue
	// return, the record is in the OS page cache (and fsynced under
	// FsyncAlways), and Flush's SyncAll orders behind it via the shard
	// log lock held since Begin.
	_, _ = app.Commit()
	if obs.Enabled() {
		obsQueueDepth.Set(w.s.queued.Load())
		obsShardQueueDepth.Set(w.idx, int64(depth))
	}
	w.signal()
}

// signal wakes the writer; the buffered token coalesces repeated signals.
func (w *shardWriter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Flush blocks until every update enqueued before the call has been
// applied and published. Updates enqueued concurrently with Flush may or
// may not be included.
func (s *Store) Flush() {
	if s.closed.Load() {
		<-s.done
		return
	}
	chs := make([]chan struct{}, 0, len(s.ws))
	for _, w := range s.ws {
		w.mu.Lock()
		if w.closed {
			// Writer is shutting down; it drains everything before exit,
			// so waiting for its exit subsumes the flush.
			w.mu.Unlock()
			chs = append(chs, nil)
			continue
		}
		ch := make(chan struct{})
		w.queue = append(w.queue, pending{op: opFlush, done: ch})
		s.queued.Add(1)
		w.mu.Unlock()
		w.signal()
		chs = append(chs, ch)
	}
	for i, ch := range chs {
		if ch == nil {
			<-s.ws[i].done
		} else {
			<-ch
		}
	}
	// Flush is also the durability barrier: every acknowledged batch is
	// fsynced before return, regardless of the group-commit policy.
	if d := s.dur; d != nil && d.log != nil {
		d.log.SyncAll()
	}
}

// Close drains every shard's queue, applies and publishes any remaining
// batches, stops the writer goroutines, and waits for them to exit.
// Updates must not be enqueued concurrently with or after Close; they
// panic. Views acquired before Close stay valid (snapshots are immutable
// and GC-managed).
func (s *Store) Close() {
	if s.closed.Swap(true) {
		<-s.done
		return
	}
	if s.autoStop != nil {
		close(s.autoStop)
		<-s.autoDone
	}
	for _, w := range s.ws {
		w.mu.Lock()
		w.closed = true
		w.mu.Unlock()
		w.signal()
	}
	<-s.done
	// Seal the WAL after the writers have drained: every logged record has
	// been applied, and Close's final sync makes them all durable. Close
	// does not checkpoint — reopening replays the log — so a clean
	// shutdown that wants a fast restart calls Checkpoint first. Taking
	// ckptMu waits out any in-flight checkpoint (auto or explicit), so no
	// background writer touches the directory after Close returns; a
	// checkpoint that has not locked yet bails on the closed re-check.
	if d := s.dur; d != nil && d.log != nil {
		d.ckptMu.Lock()
		d.ckptMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
		d.log.Close()
	}
}

// run is a shard writer's goroutine: it applies this shard's updates and
// publishes its snapshots. Each cycle it drains the whole queue, applies
// every update entry of the drained slice back to back, and publishes
// once — a group publish, like the WAL's group-commit fsync. Flush and
// rebalance entries are publish points: whatever is applied but not yet
// published is published before the sentinel closes or the rendezvous
// starts. Readers therefore observe one new shard epoch per drained group
// of batches, and the group size is whatever the queue held when the
// writer woke (a lone batch under light load publishes alone).
func (w *shardWriter) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		q := w.queue
		w.queue = nil
		closed := w.closed
		w.mu.Unlock()
		if len(q) > 0 {
			depth := w.s.queued.Add(-int64(len(q)))
			if obs.Enabled() {
				obsQueueDepth.Set(depth)
				obsShardQueueDepth.Set(w.idx, 0)
			}
		}
		if len(q) == 0 {
			if closed {
				w.reclaim()
				return
			}
			<-w.wake
			continue
		}
		first := 0 // q[first:i] are applied but not yet published
		for i := range q {
			b := &q[i]
			if b.op < opFlush { // an update entry
				w.apply(b)
				continue
			}
			// A flush or rebalance entry is a publish point.
			w.publishGroup(q[first:i])
			first = i + 1
			if b.op == opFlush {
				close(b.done)
				continue
			}
			// Rendezvous: the second of the two affected writers to reach
			// its control entry executes the splice while the first waits
			// parked. Only these two writers stop; every other shard's
			// writer and every reader keeps running.
			if b.reb.arrived.Add(1) == 2 {
				w.s.executeRebalance(b.reb)
				close(b.reb.done)
			} else {
				<-b.reb.done
			}
		}
		w.publishGroup(q[first:])
	}
}

// apply applies one queued update batch to the writer's shard without
// publishing it. Writer goroutine only.
func (w *shardWriter) apply(b *pending) {
	if testHookBeforeApply != nil {
		testHookBeforeApply()
	}
	if b.bound > 0 {
		w.shard.EnsureVertices(b.bound)
	}
	w.shard.BeginTrace(b.batch)
	w.shard.Apply(b.op, b.src, b.dst)
	w.s.stats.batchesApplied.Add(1)
	if obs.Enabled() {
		obsApplied.Inc()
		obsShardApplied.AddShard(w.idx, 1)
	}
	if b.lsn > w.appliedLSN {
		w.appliedLSN = b.lsn
	}
}

// publishGroup publishes the applied batches g as one new shard epoch,
// closes each batch's enqueue-to-publish visibility-lag measurement, and
// releases the scattered batches for GC. An empty group publishes
// nothing. Writer goroutine only.
func (w *shardWriter) publishGroup(g []pending) {
	if len(g) == 0 {
		return
	}
	// The oldest batch has waited longest, so it is the one a slow publish
	// delays most; the publish span is attributed to it.
	w.publish(g[0].batch)
	var now int64
	for i := range g {
		if b := &g[i]; b.enq != 0 {
			if now == 0 {
				now = trace.Now()
			}
			lag := now - b.enq
			if obs.Enabled() {
				obsVisibilityLag.Observe(uint64(lag))
			}
			trace.BatchEnd(b.batch, lag)
		}
		g[i] = pending{}
	}
}

// publish flattens the writer's shard into a local snapshot (reusing a
// drained snapshot's buffers when available), swaps it in as the shard's
// new epoch, and retires the previous one. batch is the flight-recorder
// attribution of the oldest update in the published group (0 from New).
// Writer goroutine only (and New, before the writer starts).
func (w *shardWriter) publish(batch uint64) {
	t := obs.StartTimer()
	tr := trace.Start()
	e := w.buildSnap()
	if old := w.cur.Swap(e); old != nil {
		w.retired = append(w.retired, old)
	}
	w.s.stats.snapshotsPublished.Add(1)
	w.reclaim()
	obsPublish.ObserveSince(t)
	trace.Span(trace.PhasePublish, w.idx, batch, e.epoch, e.snap.NumEdges(), tr)
}

// buildSnap flattens the writer's shard into a fresh epochSnap (reusing a
// drained snapshot's buffers when available) without swapping it in,
// recording the shard's current base and the partition-map epoch the
// snapshot is consistent with. Writer goroutine only — or the rebalance
// executor, while both affected writers are parked at their control
// entries (which is what makes touching w.free/w.cur safe from there).
func (w *shardWriter) buildSnap() *epochSnap {
	var reuse *core.Snapshot
	if n := len(w.free); n > 0 {
		reuse = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		w.s.stats.snapshotReuses.Add(1)
		if obs.Enabled() {
			obsSnapReuse.Inc()
		}
	}
	var next uint64
	if old := w.cur.Load(); old != nil {
		next = old.epoch + 1
	}
	return &epochSnap{
		snap:     w.shard.SnapshotInto(reuse),
		epoch:    next,
		base:     w.shard.Base(),
		mapEpoch: w.s.g.PartitionMap().Epoch,
		lsn:      w.appliedLSN,
	}
}

// reclaim recycles retired snapshots whose epoch has drained (refcount
// zero observed after retirement; see the package comment for why that
// observation is safe). Writer goroutine only.
func (w *shardWriter) reclaim() {
	tr := trace.Start()
	freed := 0
	kept := w.retired[:0]
	for _, e := range w.retired {
		if e.refs.Load() == 0 {
			if len(w.free) < w.s.opt.MaxFree {
				w.free = append(w.free, e.snap)
			}
			e.snap = nil
			freed++
			w.s.stats.snapshotsReclaimed.Add(1)
			if obs.Enabled() {
				obsReclaims.Inc()
			}
		} else {
			kept = append(kept, e)
		}
	}
	if freed > 0 {
		trace.Span(trace.PhaseReclaim, w.idx, 0, 0, uint64(freed), tr)
	}
	for i := len(kept); i < len(w.retired); i++ {
		w.retired[i] = nil
	}
	w.retired = kept
	if obs.Enabled() {
		var lag int64
		if len(w.retired) > 0 {
			lag = int64(w.cur.Load().epoch - w.retired[0].epoch)
		}
		obsEpochLag.Set(lag)
		obsShardPublishLag.Set(w.idx, lag)
	}
}

// acquire pins the shard's current snapshot: increment its refcount, then
// recheck that it is still current. The recheck is what makes the writer's
// refs==0 observation a proof that no reader holds or will obtain the
// snapshot (sequentially consistent atomics; see the package comment).
func (w *shardWriter) acquire() *epochSnap {
	for {
		e := w.cur.Load()
		e.refs.Add(1)
		if w.cur.Load() == e {
			return e
		}
		e.refs.Add(-1)
	}
}

func (w *shardWriter) release(e *epochSnap) { e.refs.Add(-1) }

// View is an epoch-pinned, immutable composed view of the Store: one
// pinned snapshot per shard plus the vertex bound read at acquire time.
// Every read method (NumVertices, NumEdges, Degree, Neighbors,
// ForEachNeighbor, NeighborBlocks) and every analytics kernel
// written against engine.Graph works on it directly, concurrently with
// ongoing ingestion. Call Release when done; an unreleased View pins its
// snapshots' buffers for the life of the Store.
type View struct {
	s     *Store
	pm    *core.PartitionMap
	es    []*epochSnap
	epoch uint64
	nv    uint32
	m     uint64
	pin   int64 // trace-timeline acquire timestamp; 0 when obs and tracing are off

	flatOnce sync.Once
	flat     *core.Snapshot
}

// View acquires the most recently published snapshot of every shard and
// returns them pinned as one composed view. Always non-blocking with
// respect to the writers: a View is available even mid-batch. Safe to call
// from any goroutine, including after Close.
//
// The acquire loop also captures the partition map and verifies every
// pinned snapshot was published under a map whose view of that shard's
// range is no older than the captured map's (mapEpoch >= RangeEpoch), then
// rechecks that the map is still current. During the short window in which
// a boundary move swaps the map and the two affected shards' snapshots,
// one of the two checks fails and the loop retries; the executor's swap
// order (splice → build snapshots → swap viewMap → swap snapshots) bounds
// the retry window to nanoseconds.
func (s *Store) View() *View {
	v := &View{s: s}
	for {
		pm := s.viewMap.Load()
		es := make([]*epochSnap, len(s.ws))
		var epoch, m uint64
		ok := true
		for i, w := range s.ws {
			e := w.acquire()
			es[i] = e
			if e.mapEpoch < pm.RangeEpoch[i] {
				ok = false
			}
			epoch += e.epoch
			m += e.snap.NumEdges()
		}
		if ok && s.viewMap.Load() == pm {
			v.pm, v.es, v.epoch, v.m = pm, es, epoch, m
			break
		}
		for i, e := range es {
			s.ws[i].release(e)
		}
	}
	// Read the vertex bound after pinning: it is then at least as large as
	// the bound reserved before any pinned snapshot's batch was published,
	// so every neighbor ID in the view is < nv (see the package comment).
	v.nv = s.g.NumVertices()
	if obs.Enabled() || trace.Enabled() {
		v.pin = trace.Now()
	}
	return v
}

// Epoch returns the sum of the shard epochs this view pinned: 0 for the
// Store's initial state, incremented by one per shard publish anywhere in
// the store (one per drained group of batches, plus one per shard touched
// by a boundary move). Monotone across successively acquired views. Valid
// after Release.
func (v *View) Epoch() uint64 { return v.epoch }

// NumVertices returns the view's vertex count: the logical vertex-space
// bound at acquire time, which covers every ID any pinned adjacency
// references.
func (v *View) NumVertices() uint32 { return v.nv }

// NumEdges returns the view's directed edge count, summed over the pinned
// shard snapshots.
func (v *View) NumEdges() uint64 { return v.m }

// snapOf routes v to its pinned shard snapshot and local index. ok is
// false when the ID is beyond the snapshot's materialized range (a vertex
// reserved or grown after the shard's pinned publish): such a vertex has
// degree 0 in this view.
func (v *View) snapOf(u uint32) (*core.Snapshot, uint32, bool) {
	// Route by the view's own pinned map and snapshot bases, never the
	// store's live ones: a concurrent boundary move must not change what
	// this view reads.
	i := v.pm.ShardOf(u)
	e := v.es[i]
	snap := e.snap
	lu := u - e.base
	return snap, lu, lu < snap.NumVertices()
}

// Degree returns u's out-degree at the view's epoch.
func (v *View) Degree(u uint32) uint32 {
	snap, lu, ok := v.snapOf(u)
	if !ok {
		return 0
	}
	return snap.Degree(lu)
}

// Neighbors returns u's sorted neighbors; the slice aliases pinned
// snapshot storage and must not be mutated or used after Release.
func (v *View) Neighbors(u uint32) []uint32 {
	snap, lu, ok := v.snapOf(u)
	if !ok {
		return nil
	}
	return snap.Neighbors(lu)
}

// ForEachNeighbor applies f to u's neighbors in ascending order.
func (v *View) ForEachNeighbor(u uint32, f func(w uint32)) {
	for _, n := range v.Neighbors(u) {
		f(n)
	}
}

// NeighborBlocks yields u's entire pinned CSR segment as one block
// (engine.NeighborBlocker). The block aliases pinned snapshot storage: it
// must not be mutated, and must not be used after Release.
func (v *View) NeighborBlocks(u uint32, yield func(block []uint32) bool) {
	if ns := v.Neighbors(u); len(ns) > 0 {
		yield(ns[:len(ns):len(ns)])
	}
}

// Flatten materializes the composed view as one flat full-graph CSR,
// lazily on first call and cached for the view's lifetime. Use it when a
// long-running kernel would otherwise pay the per-read shard routing, or
// when a plain *core.Snapshot is needed. The returned snapshot owns its
// storage, but is only built while the view is pinned: do not call after
// Release.
func (v *View) Flatten() *core.Snapshot {
	v.flatOnce.Do(func() {
		parts := make([]*core.Snapshot, len(v.es))
		bases := make([]uint32, len(v.es))
		for i, e := range v.es {
			parts[i] = e.snap
			bases[i] = e.base
		}
		v.flat = core.ComposeSnapshots(parts, bases, v.nv)
	})
	return v.flat
}

// Release unpins the view. The view's read methods must not be used
// afterwards (its buffers may be recycled into a future snapshot).
// Releasing twice is a no-op. Release is not safe to call concurrently
// with the view's own readers; callers sharing a View across goroutines
// must release after those goroutines finish.
func (v *View) Release() {
	if v.es == nil {
		return
	}
	for i, e := range v.es {
		v.s.ws[i].release(e)
	}
	v.es = nil
	if v.pin != 0 {
		// How long the view held its snapshots pinned: long pins are what
		// delay reclamation, so the age distribution explains epoch lag.
		if obs.Enabled() {
			obsViewPinAge.Observe(uint64(trace.Now() - v.pin))
		}
		trace.Span(trace.PhaseViewPin, -1, 0, v.epoch, v.m, v.pin)
	}
}

// Epoch returns the Store's current epoch: the total number of shard
// publishes across all shards since construction (see View.Epoch).
func (s *Store) Epoch() uint64 {
	var e uint64
	for _, w := range s.ws {
		e += w.cur.Load().epoch
	}
	return e
}

// NumVertices returns the current logical vertex-space bound (including
// vertices reserved by still-queued batches).
func (s *Store) NumVertices() uint32 { return s.g.NumVertices() }

// NumEdges returns the directed edge count summed over the shards'
// current snapshots, acquired as one consistent map+snapshot cut (so a
// concurrent boundary move never double- or under-counts the moved
// range's edges).
func (s *Store) NumEdges() uint64 {
	v := s.View()
	m := v.NumEdges()
	v.Release()
	return m
}

// pinFor routes v to its owning shard under the current view map and pins
// that shard's snapshot, retrying when a concurrent boundary move leaves
// the map and the pinned snapshot momentarily inconsistent (same protocol
// as View, for a single shard). The returned local index is valid against
// the returned snapshot; callers must release e on the returned writer.
func (s *Store) pinFor(v uint32) (*shardWriter, *epochSnap, uint32) {
	for {
		pm := s.viewMap.Load()
		i := pm.ShardOf(v)
		w := s.ws[i]
		e := w.acquire()
		if e.mapEpoch >= pm.RangeEpoch[i] && s.viewMap.Load() == pm {
			return w, e, v - e.base
		}
		w.release(e)
	}
}

// Degree returns v's out-degree in the owning shard's current snapshot.
func (s *Store) Degree(v uint32) uint32 {
	w, e, lv := s.pinFor(v)
	d := uint32(0)
	if lv < e.snap.NumVertices() {
		d = e.snap.Degree(lv)
	}
	w.release(e)
	return d
}

// ForEachNeighbor applies f to v's out-neighbors in ascending order, on
// the owning shard's snapshot current at call time. The snapshot stays
// pinned for the duration of the iteration, so f always sees one coherent
// adjacency even while batches apply concurrently.
func (s *Store) ForEachNeighbor(v uint32, f func(u uint32)) {
	w, e, lv := s.pinFor(v)
	if lv < e.snap.NumVertices() {
		e.snap.ForEachNeighbor(lv, f)
	}
	w.release(e)
}

// NeighborBlocks yields v's adjacency as one block out of the owning
// shard's snapshot current at call time (engine.NeighborBlocker). The
// snapshot stays pinned only for the duration of the call, so the block
// must not be retained past yield.
func (s *Store) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	w, e, lv := s.pinFor(v)
	if lv < e.snap.NumVertices() {
		e.snap.NeighborBlocks(lv, yield)
	}
	w.release(e)
}

// QueueDepth returns the number of update batches currently queued across
// all shard queues, including Flush sentinels. It is a point-in-time read
// of an always-on atomic counter (no locks, safe from any goroutine); the
// value can change before the caller acts on it.
func (s *Store) QueueDepth() int { return int(s.queued.Load()) }

// MaxQueue returns the per-shard soft queue bound (Options.MaxQueue after
// defaulting): once a shard's queue holds this many batches, further
// same-op enqueues coalesce into the newest entry instead of growing the
// queue. Constant for the Store's lifetime.
func (s *Store) MaxQueue() int { return s.opt.MaxQueue }

// Saturated reports whether any shard's queue has reached the MaxQueue
// bound — the point where the next same-op enqueue would coalesce rather
// than queue. This is the engine's backpressure signal: admission
// controllers in front of the Store (the HTTP front-end) shed ingest load
// when it is true instead of letting coalescing grow unbounded merged
// batches. It briefly takes each shard's queue lock, so it is safe from
// any goroutine but intended for per-request cadence, not per-edge.
func (s *Store) Saturated() bool {
	for _, w := range s.ws {
		w.mu.Lock()
		n := len(w.queue)
		w.mu.Unlock()
		if n >= s.opt.MaxQueue {
			return true
		}
	}
	return false
}

// QueueDepths appends each shard's current queue depth (in batches,
// including Flush sentinels) to dst and returns it, one entry per shard in
// shard order. Each depth is read under that shard's queue lock, but the
// vector as a whole is not one atomic cut across shards.
func (s *Store) QueueDepths(dst []int) []int {
	for _, w := range s.ws {
		w.mu.Lock()
		n := len(w.queue)
		w.mu.Unlock()
		dst = append(dst, n)
	}
	return dst
}

// Stats is a point-in-time copy of the Store's always-on counters. These
// are maintained with plain atomics independently of the obs registry, so
// benchmarks and tests can read them without enabling metric collection.
type Stats struct {
	// BatchesApplied counts engine batches the shard writers have applied.
	// With coalescing this can be lower than the number of enqueue calls;
	// with multiple shards one enqueue can apply as several shard batches.
	BatchesApplied uint64
	// EdgesEnqueued counts raw edges submitted via InsertBatch/DeleteBatch.
	EdgesEnqueued uint64
	// CoalescedBatches counts enqueue calls merged into an already-queued
	// batch under backpressure.
	CoalescedBatches uint64
	// SnapshotsPublished counts published shard epochs (including each
	// shard's epoch 0). A writer publishes once per drained queue slice and
	// at each Flush or rebalance entry in it, not once per batch, so
	// BatchesApplied / SnapshotsPublished approximates the mean publish
	// group size.
	SnapshotsPublished uint64
	// SnapshotsReclaimed counts retired snapshots whose epoch drained and
	// whose buffers were recycled or dropped.
	SnapshotsReclaimed uint64
	// SnapshotReuses counts publishes that reused a reclaimed snapshot's
	// buffers instead of allocating.
	SnapshotReuses uint64
	// Rebalances counts completed Rebalance calls that performed at least
	// one boundary move.
	Rebalances uint64
	// BoundaryMoves counts individual boundary moves (a Rebalance may
	// perform several).
	BoundaryMoves uint64
	// MovedVertices counts materialized vertex blocks that changed owner
	// across all boundary moves.
	MovedVertices uint64
	// MovedEdges counts directed edges that changed owner across all
	// boundary moves.
	MovedEdges uint64
	// WALRecords counts shard-batch records appended to the write-ahead
	// log (0 on a non-durable store, like every WAL* field below).
	WALRecords uint64
	// WALBytes counts framed bytes written to WAL segments.
	WALBytes uint64
	// WALFsyncs counts fsync calls on WAL segments.
	WALFsyncs uint64
	// WALAppendErrors counts batches that could not be logged (I/O error);
	// the store kept applying them in memory, so a non-zero value means
	// durability is degraded until the next successful checkpoint.
	WALAppendErrors uint64
	// Checkpoints counts published checkpoints.
	Checkpoints uint64
	// SegmentsGCed counts WAL segments deleted after a checkpoint covered
	// them.
	SegmentsGCed uint64
}

// Stats returns a copy of the Store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		BatchesApplied:     s.stats.batchesApplied.Load(),
		EdgesEnqueued:      s.stats.edgesEnqueued.Load(),
		CoalescedBatches:   s.stats.coalescedBatches.Load(),
		SnapshotsPublished: s.stats.snapshotsPublished.Load(),
		SnapshotsReclaimed: s.stats.snapshotsReclaimed.Load(),
		SnapshotReuses:     s.stats.snapshotReuses.Load(),
		Rebalances:         s.rebStats.rebalances.Load(),
		BoundaryMoves:      s.rebStats.boundaryMoves.Load(),
		MovedVertices:      s.rebStats.movedVertices.Load(),
		MovedEdges:         s.rebStats.movedEdges.Load(),
	}
	if d := s.dur; d != nil && d.log != nil {
		ls := d.log.Stats()
		st.WALRecords = ls.Records
		st.WALBytes = ls.Bytes
		st.WALFsyncs = ls.Syncs
		st.WALAppendErrors = ls.AppendErrors
		st.Checkpoints = d.checkpoints.Load()
		st.SegmentsGCed = d.segsGCed.Load()
	}
	return st
}
