package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lsgraph/internal/gen"
	"lsgraph/internal/httpserve"
)

// The ingest workload: maxConns closed-loop producers each post
// ingestGroup binary batches of ingestBatch Zipf-skewed edges, then
// /flush, until a fixed edge total is acknowledged. Then, on the quiescent
// graph, kernel passes and degree lookups, and finally SIGKILL-and-restart
// cycles on the same data dir (no checkpoint is taken, so recovery replays
// the whole WAL).
const (
	zipfTheta   = 1.2
	ingestBatch = 1024
	ingestGroup = 8
	// ingestRate sizes the fixed edge total: seconds × ingestRate edges,
	// about what the seed commit acknowledges per second on a 2-core host,
	// so a run lasts about -seconds there. The total is fixed per seed and
	// -seconds, not per commit, so the WAL replayed by recover_s is too.
	ingestRate = 100_000
)

// writeBatch is one generated update batch and its request body.
type writeBatch struct {
	src, dst []uint32
	body     []byte
}

func zipfBatches(seed uint64, n uint32, count, size int) []writeBatch {
	z := gen.NewZipf(n, zipfTheta, seed)
	out := make([]writeBatch, count)
	for i := range out {
		src, dst := z.Batch(size)
		out[i] = writeBatch{src: src, dst: dst, body: httpserve.AppendBinaryEdges(nil, src, dst)}
	}
	return out
}

// reference returns the edge set of base plus every acknowledged batch.
func reference(base []uint64, batches []writeBatch, acked []bool) edgeSet {
	keys := append([]uint64(nil), base...)
	for i, b := range batches {
		if acked[i] {
			for j := range b.src {
				keys = append(keys, uint64(b.src[j])<<32|uint64(b.dst[j]))
			}
		}
	}
	return newEdgeSet(keys)
}

type writeRec struct {
	send, ack time.Time
	err       error
}

type flushRec struct{ sent, ret time.Time }

// ingestLog is what the producers recorded.
type ingestLog struct {
	writes      []writeRec // indexed by batch
	flushes     []flushRec // the ones that succeeded
	flushFailed int
	first       time.Time
	last        time.Time // latest flush return
}

// produce runs the closed-loop producers over batches until all are sent
// or deadline passes.
func produce(cl *client, batches []writeBatch, deadline time.Time) ingestLog {
	lg := ingestLog{writes: make([]writeRec, len(batches))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	lg.first = time.Now()
	for p := 0; p < maxConns; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				g := int(next.Add(1)) - 1
				lo := g * ingestGroup
				if lo >= len(batches) {
					return
				}
				for i := lo; i < min(lo+ingestGroup, len(batches)); i++ {
					rec := writeRec{send: time.Now()}
					rec.err = cl.postEdges(batches[i].body)
					rec.ack = time.Now()
					lg.writes[i] = rec
				}
				f := flushRec{sent: time.Now()}
				err := cl.flush()
				f.ret = time.Now()
				mu.Lock()
				if err == nil {
					lg.flushes = append(lg.flushes, f)
				} else {
					lg.flushFailed++
				}
				if f.ret.After(lg.last) {
					lg.last = f.ret
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lg
}

// visibility returns, per acknowledged write, the milliseconds from its
// send until the return of the first flush issued after its ack.
func visibility(lg ingestLog) []float64 {
	var out []float64
	for _, w := range lg.writes {
		if w.err != nil || w.send.IsZero() {
			continue
		}
		var best time.Time
		for _, f := range lg.flushes {
			if !f.sent.Before(w.ack) && (best.IsZero() || f.ret.Before(best)) {
				best = f.ret
			}
		}
		if !best.IsZero() {
			out = append(out, float64(best.Sub(w.send).Nanoseconds())/1e6)
		}
	}
	return out
}

// analytics runs analyticsPass passes of every kernel and returns each
// pass's milliseconds and the number of kernel requests made.
func analytics(cl *client) ([]float64, int64, error) {
	var passes []float64
	var n int64
	for i := 0; i < analyticsPass; i++ {
		sum := 0.0
		for _, k := range kernels {
			t := time.Now()
			n++
			if err := cl.kernel(k); err != nil {
				return nil, n, fmt.Errorf("kernel %s: %w", k, err)
			}
			sum += msSince(t)
		}
		passes = append(passes, sum)
	}
	return passes, n, nil
}

// ingestTotal is the number of batches an ingest run posts.
func ingestTotal(seconds float64) int {
	groups := int(seconds*ingestRate/(ingestBatch*ingestGroup)) + 1
	return groups * ingestGroup
}

func runIngest(c config) (outcome, error) {
	sb := newServedBase(fullSize, c.seed)
	n := fullSize.vertices()
	batches := zipfBatches(c.seed^0x1a6e57, n, ingestTotal(c.seconds), ingestBatch)
	sample := degreeSample(c.seed^0x5a3b1e, n)

	d, dir, setups, err := setupServed(c, sb)
	if err != nil {
		return outcome{}, err
	}
	defer func() { d.kill(); os.RemoveAll(dir) }()
	cl := newClient(d)
	deadline := time.Now().Add(time.Duration(4*c.seconds+30) * time.Second)
	lg := produce(cl, batches, deadline)

	out := outcome{e2e: metrics{}}
	out.attempted = int64(len(lg.flushes) + lg.flushFailed)
	out.failed = int64(lg.flushFailed)
	acked := make([]bool, len(batches))
	var ackedEdges, shed, writes int
	var writeLat []float64
	for i, w := range lg.writes {
		if w.send.IsZero() {
			continue // not sent before the deadline
		}
		writes++
		if w.err != nil {
			out.failed++
			if isShed(w.err) {
				shed++
			}
			continue
		}
		acked[i] = true
		ackedEdges += len(batches[i].src)
		writeLat = append(writeLat, float64(w.ack.Sub(w.send).Nanoseconds())/1e6)
	}
	out.attempted += int64(writes)
	if len(writeLat) == 0 {
		return outcome{}, fmt.Errorf("ingest: no write was acknowledged")
	}
	ref := reference(sb.keys, batches, acked)
	var lookups []float64
	for p := 0; p < lookupPasses; p++ {
		lat, err := checkDaemon("ingest after flush", cl, ref, sample)
		if err != nil {
			return outcome{}, err
		}
		lookups = append(lookups, lat...)
	}
	out.attempted += int64(len(lookups))
	passes, kn, err := analytics(cl)
	out.attempted += kn
	if err != nil {
		return outcome{}, err
	}
	cl.close()
	d, recovers, err := recoverDaemon(c, d, dir, ref)
	if err != nil {
		return outcome{}, err
	}
	cl = newClient(d)
	if _, err := checkDaemon("ingest after restart", cl, ref, sample); err != nil {
		return outcome{}, err
	}
	cl.close()

	m := out.e2e
	vis := visibility(lg)
	m.set("setup_s", median(setups), "s")
	m.set("update_eps", float64(ackedEdges)/lg.last.Sub(lg.first).Seconds(), "edges/s")
	m.set("lookup_p50_ms", windowed(lookups, lookupPasses, 0.5), "ms")
	m.set("analytics_ms", median(passes), "ms")
	m.set("recover_s", minimum(recovers), "s")
	fmt.Printf("# ingest diagnostics: acked_edges=%d, update p50 %.4g ms, %s, visible p50 %.4g ms, %s, %s, restarts %.3g s\n",
		ackedEdges, median(writeLat), tailNote("update", writeLat), median(vis), tailNote("visible", vis), tailNote("lookup", lookups), recovers)
	out.untraced = map[string]float64{"write_p50": median(writeLat), "writes": float64(writes), "shed": float64(shed)}
	return out, nil
}
