package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lsgraph/internal/gen"
)

// The mixed workload: the ingest workload's daemon and preload, driven
// open-loop by a seeded Poisson schedule at mixedRate requests/s. Each
// request is timed from its due time, and arrivals wait client-side for
// one of the maxConns connections instead of being dropped, so a stall
// shows in every request queued behind it.
const (
	// mixedRate is about half of what the seed commit sustains on a
	// 2-core host without a growing backlog.
	mixedRate       = 200.0
	mixedWriteBatch = 256
	neighborsLimit  = 1024
	khopDepth       = 2
	// mixedWindows is the number of time windows whose median read
	// median is reported.
	mixedWindows = 5
)

type opKind uint8

const (
	opDegree opKind = iota
	opNeighbors
	opKhop
	opKernel
	opWrite
)

// mixedOp is one scheduled request.
type mixedOp struct {
	due    float64 // seconds from the run's start
	kind   opKind
	vertex uint32
	kernel string
	write  int // index into the write batches
}

// mixedShare is the request mix, indexed by opKind: 45% degree, 25%
// neighbors, 9% khop, 1% kernels (rotating bfs, pagerank, cc) and 20%
// writes.
var mixedShare = []float64{opDegree: 0.45, opNeighbors: 0.25, opKhop: 0.09, opKernel: 0.01, opWrite: 0.20}

// mixedOps draws the schedule and each arrival's request. The counts of
// each kind are fixed by the mix; their order and vertices are seeded.
func mixedOps(seed uint64, span float64, n uint32) (ops []mixedOp, writes int) {
	rng := gen.NewRNG(seed ^ 0x0b5e55ed)
	due := poissonSchedule(seed, mixedRate, span)
	kinds := shuffledKinds(rng, len(due), mixedShare)
	ops = make([]mixedOp, len(due))
	nk := 0
	for i, t := range due {
		op := mixedOp{due: t, kind: opKind(kinds[i]), vertex: rng.Uint32n(n)}
		switch op.kind {
		case opKernel:
			op.kernel = kernels[nk%len(kernels)]
			nk++
		case opWrite:
			op.write = writes
			writes++
		}
		ops[i] = op
	}
	return ops, writes
}

// opRec is one request's outcome.
type opRec struct {
	late, lat float64 // ms: send minus due, done minus due
	err       error
}

// errNotSent marks an arrival still queued when the run's hard deadline,
// three times its schedule, passed: a stalled server fails the rest of
// the schedule instead of holding the run past its time limit.
var errNotSent = errors.New("not sent before the run's deadline")

// openLoop sends ops on their schedule over maxConns connections.
func openLoop(cl *client, ops []mixedOp, batches []writeBatch) ([]opRec, time.Time) {
	recs := make([]opRec, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	var span float64
	if len(ops) > 0 {
		span = ops[len(ops)-1].due
	}
	hard := start.Add(time.Duration(3*span*float64(time.Second)) + 10*time.Second)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				op := ops[i]
				due := start.Add(time.Duration(op.due * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				var err error
				if sent.After(hard) {
					recs[i] = opRec{err: errNotSent}
					continue
				}
				switch op.kind {
				case opDegree:
					_, err = cl.degree(op.vertex)
				case opNeighbors:
					err = cl.neighbors(op.vertex, neighborsLimit)
				case opKhop:
					err = cl.khop(op.vertex, khopDepth)
				case opKernel:
					err = cl.kernel(op.kernel)
				case opWrite:
					err = cl.postEdges(batches[op.write].body)
				}
				done := time.Now()
				recs[i] = opRec{
					late: float64(sent.Sub(due).Nanoseconds()) / 1e6,
					lat:  float64(done.Sub(due).Nanoseconds()) / 1e6,
					err:  err,
				}
			}
		}()
	}
	wg.Wait()
	return recs, start
}

func runMixed(c config) (outcome, error) {
	sb := newServedBase(fullSize, c.seed)
	n := fullSize.vertices()
	ops, nw := mixedOps(c.seed, c.seconds, n)
	batches := zipfBatches(c.seed^0x1a6e57, n, nw, mixedWriteBatch)
	sample := degreeSample(c.seed^0x5a3b1e, n)

	d, dir, setups, err := setupServed(c, sb)
	if err != nil {
		return outcome{}, err
	}
	defer func() { d.kill(); os.RemoveAll(dir) }()
	cl := newClient(d)
	recs, start := openLoop(cl, ops, batches)
	if err := cl.flush(); err != nil {
		return outcome{}, fmt.Errorf("mixed: final flush: %w", err)
	}
	span := time.Since(start).Seconds()

	out := outcome{e2e: metrics{}, attempted: int64(len(ops))}
	acked := make([]bool, len(batches))
	var writeLat, readLat, late []float64
	kernelLat := map[string][]float64{}
	var ackedEdges, shed int
	for i, r := range recs {
		late = append(late, r.late)
		if r.err != nil {
			out.failed++
			if isShed(r.err) {
				shed++
			}
			continue
		}
		switch op := ops[i]; op.kind {
		case opWrite:
			acked[op.write] = true
			ackedEdges += mixedWriteBatch
			writeLat = append(writeLat, r.lat)
		case opKernel:
			kernelLat[op.kernel] = append(kernelLat[op.kernel], r.lat)
		default:
			readLat = append(readLat, r.lat)
		}
	}
	if len(writeLat) == 0 || len(readLat) == 0 || len(kernelLat) != len(kernels) {
		return outcome{}, fmt.Errorf("mixed: too few successful requests (%d writes, %d reads, %d kernel kinds)", len(writeLat), len(readLat), len(kernelLat))
	}
	ref := reference(sb.keys, batches, acked)
	if _, err := checkDaemon("mixed after flush", cl, ref, sample); err != nil {
		return outcome{}, err
	}
	cl.close()
	d, recovers, err := recoverDaemon(c, d, dir, ref)
	if err != nil {
		return outcome{}, err
	}
	cl = newClient(d)
	if _, err := checkDaemon("mixed after restart", cl, ref, sample); err != nil {
		return outcome{}, err
	}
	cl.close()

	analyticsMs := 0.0
	for _, k := range kernels {
		analyticsMs += median(kernelLat[k])
	}
	m := out.e2e
	m.set("setup_s", median(setups), "s")
	m.set("update_eps", float64(ackedEdges)/span, "edges/s")
	m.set("lookup_p50_ms", windowed(readLat, mixedWindows, 0.5), "ms")
	m.set("analytics_ms", analyticsMs, "ms")
	m.set("recover_s", minimum(recovers), "s")
	fmt.Printf("# mixed diagnostics: rate=%.0f/s requests=%d shed=%d, late p50 %.4g ms, %s, update p50 %.4g ms, %s, %s, restarts %.3g s\n",
		mixedRate, len(ops), shed, median(late), tailNote("late", late), median(writeLat), tailNote("update", writeLat), tailNote("lookup", readLat), recovers)
	out.untraced = map[string]float64{"write_p50": median(writeLat), "writes": float64(nw), "shed": float64(shed)}
	return out, nil
}
