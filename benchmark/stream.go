package main

import (
	"fmt"
	"slices"
	"time"

	"lsgraph"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// The stream workload is the paper's phase-alternating setting on an
// in-process lsgraph.Graph: insert a batch, run the kernels on the live
// structure, delete the batch. Nothing is served, logged or published,
// so only core apply, ria/hitree and algo do work.
const (
	streamPRIters = 10
	streamSetups  = 5 // set-ups per run; setup_s is their median
	// streamReloads is the number of reloads after the rounds; recover_s
	// is the fastest. A reload takes about 0.1 s, short enough for one
	// burst of host interference to double it.
	streamReloads = 7
)

// size is the graph a run builds; tests use a smaller one.
type size struct {
	scale    uint // 2^scale vertices
	rawEdges int  // rMat draws before symmetrizing
	batch    int  // directed edges per symmetrized stream batch
	lookups  int  // degree+neighbors lookups per stream round
}

// fullSize is the benchmark's graph: rMat scale 17, about 2M directed
// edges after symmetrizing, 100k-edge batches.
var fullSize = size{scale: 17, rawEdges: 1 << 20, batch: 100_000, lookups: 1000}

func (sz size) vertices() uint32 { return uint32(1) << sz.scale }

// streamBase draws the preload: rMat with the paper's parameters,
// symmetrized and deduplicated, sorted by key.
func streamBase(sz size, seed uint64) []gen.Edge {
	return gen.Symmetrize(gen.NewRMatPaper(sz.scale, seed).Edges(sz.rawEdges))
}

// streamBatchEdges draws one symmetrized batch of about want directed
// edges that are absent from base, so that deleting the batch restores
// the base graph exactly.
func streamBatchEdges(r *gen.RMat, base []uint64, want int) (src, dst []uint32) {
	keys := make([]uint64, 0, want+2)
	for len(keys) < want {
		e := r.Edge()
		if e.Src == e.Dst {
			continue
		}
		if _, in := slices.BinarySearch(base, e.Key()); in {
			continue
		}
		keys = append(keys, e.Key(), gen.Edge{Src: e.Dst, Dst: e.Src}.Key())
		if len(keys) >= want {
			slices.Sort(keys)
			keys = slices.Compact(keys)
		}
	}
	src = make([]uint32, len(keys))
	dst = make([]uint32, len(keys))
	for i, k := range keys {
		src[i], dst[i] = uint32(k>>32), uint32(k)
	}
	return src, dst
}

// streamRound is what one round measured and returned.
type streamRound struct {
	src, dst         []uint32
	insert, delete   time.Duration
	bfs, rank, cc    time.Duration
	edgesAfterInsert uint64
	levels           []int32
	labels           []uint32
	lookups          []float64 // ms per degree+neighbors lookup
	edgesAfterDelete uint64
}

type streamState struct {
	sz     size
	n      uint32
	base   []gen.Edge
	keys   []uint64
	g      *lsgraph.Graph
	setups []float64
}

// setupStream draws the base edges, then builds the graph from them
// setups times and keeps the last; each set-up is timed from an empty
// graph to the loaded one.
func setupStream(sz size, seed uint64, setups int) *streamState {
	st := &streamState{sz: sz, n: sz.vertices(), base: streamBase(sz, seed)}
	st.keys = make([]uint64, len(st.base))
	for i, e := range st.base {
		st.keys[i] = e.Key()
	}
	for i := 0; i < setups; i++ {
		st.g = nil
		var secs float64
		st.g, secs = st.build()
		st.setups = append(st.setups, secs)
	}
	return st
}

// build loads the base edges into a new graph and returns it with the
// seconds the load took.
func (st *streamState) build() (*lsgraph.Graph, float64) {
	src, dst := splitEdges(st.base)
	t := time.Now()
	g := lsgraph.New(st.n)
	g.InsertBatch(src, dst)
	return g, time.Since(t).Seconds()
}

func splitEdges(es []gen.Edge) (src, dst []uint32) {
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return src, dst
}

// round runs one insert / lookups / kernels / delete round on the live
// graph and times each step.
func (st *streamState) round(r *gen.RMat, rng *gen.RNG) (streamRound, error) {
	var out streamRound
	out.src, out.dst = streamBatchEdges(r, st.keys, st.sz.batch)
	lookups := make([]uint32, st.sz.lookups)
	for i := range lookups {
		lookups[i] = rng.Uint32n(st.n)
	}
	g := st.g

	t := time.Now()
	g.InsertBatch(out.src, out.dst)
	out.insert = time.Since(t)
	out.edgesAfterInsert = g.NumEdges()

	out.lookups = make([]float64, len(lookups))
	for i, v := range lookups {
		t = time.Now()
		d := g.Degree(v)
		ns := g.Neighbors(v)
		out.lookups[i] = msSince(t)
		if uint32(len(ns)) != d {
			return out, fmt.Errorf("stream: vertex %d has degree %d but %d neighbors", v, d, len(ns))
		}
	}

	t = time.Now()
	out.levels = lsgraph.BFSLevels(g, 0)
	out.bfs = time.Since(t)
	t = time.Now()
	lsgraph.PageRank(g, streamPRIters)
	out.rank = time.Since(t)
	t = time.Now()
	out.labels = lsgraph.ConnectedComponents(g)
	out.cc = time.Since(t)

	t = time.Now()
	g.DeleteBatch(out.src, out.dst)
	out.delete = time.Since(t)
	out.edgesAfterDelete = g.NumEdges()
	return out, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// checkStreamRound checks a kept round's edge counts, BFS levels and CC
// labels against the reference graph of base plus the round's batch.
func (st *streamState) checkStreamRound(ref *refgraph.Graph, rd streamRound) error {
	want := uint64(len(st.base))
	if rd.edgesAfterDelete != want {
		return fmt.Errorf("stream: %d edges after delete, want %d", rd.edgesAfterDelete, want)
	}
	for i := range rd.src {
		ref.Insert(rd.src[i], rd.dst[i])
	}
	defer func() {
		for i := range rd.src {
			ref.Delete(rd.src[i], rd.dst[i])
		}
	}()
	if rd.edgesAfterInsert != ref.NumEdges() {
		return fmt.Errorf("stream: %d edges after insert, reference has %d", rd.edgesAfterInsert, ref.NumEdges())
	}
	if err := checkLevels(rd.levels, refBFSLevels(ref, 0)); err != nil {
		return err
	}
	return checkPartition(rd.labels, refComponents(ref))
}

func (st *streamState) refGraph() *refgraph.Graph {
	ref := refgraph.New(st.n)
	for _, e := range st.base { // sorted by key, so every insert appends
		ref.Insert(e.Src, e.Dst)
	}
	return ref
}

// streamInputs returns the generators of a stream run's batches and
// lookup vertices.
func streamInputs(sz size, seed uint64) (*gen.RMat, *gen.RNG) {
	return gen.NewRMatPaper(sz.scale, seed^0x5eed0001), gen.NewRNG(seed ^ 0x5eed0002)
}

func runStream(c config) (outcome, error) {
	st := setupStream(fullSize, c.seed, streamSetups)
	ref := st.refGraph()
	batches, rng := streamInputs(fullSize, c.seed)

	var rounds []streamRound
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for len(rounds) < 2 || time.Now().Before(deadline) {
		rd, err := st.round(batches, rng)
		if err != nil {
			return outcome{}, err
		}
		if len(rounds) == 0 {
			if err := st.checkStreamRound(ref, rd); err != nil {
				return outcome{}, fmt.Errorf("first round: %w", err)
			}
		} else { // only the latest round's answers are still to be checked
			rounds[len(rounds)-1].levels, rounds[len(rounds)-1].labels = nil, nil
		}
		rounds = append(rounds, rd)
	}
	if err := st.checkStreamRound(ref, rounds[len(rounds)-1]); err != nil {
		return outcome{}, fmt.Errorf("last round: %w", err)
	}

	// An in-memory graph restarts by reloading its edge list: the same
	// build as set-up, timed again after the rounds. recover_s is the
	// fastest reload, as on the served workloads.
	var recovers []float64
	for i := 0; i < streamReloads; i++ {
		st.g = nil
		g, secs := st.build()
		recovers = append(recovers, secs)
		if g.NumEdges() != uint64(len(st.base)) {
			return outcome{}, fmt.Errorf("stream: reload has %d edges, want %d", g.NumEdges(), len(st.base))
		}
	}

	var eps, updates, analytics, lookups []float64
	var ins, del, bfs, rank, cc []float64
	for _, rd := range rounds {
		edges := float64(2 * len(rd.src))
		eps = append(eps, edges/(rd.insert+rd.delete).Seconds())
		updates = append(updates, ms(rd.insert), ms(rd.delete))
		analytics = append(analytics, ms(rd.bfs+rd.rank+rd.cc))
		lookups = append(lookups, rd.lookups...)
		ins, del = append(ins, ms(rd.insert)), append(del, ms(rd.delete))
		bfs, rank, cc = append(bfs, ms(rd.bfs)), append(rank, ms(rd.rank)), append(cc, ms(rd.cc))
	}
	m := metrics{}
	m.set("setup_s", median(st.setups), "s")
	m.set("update_eps", median(eps), "edges/s")
	m.set("lookup_p50_ms", median(lookups), "ms")
	m.set("analytics_ms", median(analytics), "ms")
	m.set("recover_s", minimum(recovers), "s")
	fmt.Printf("# stream diagnostics: rounds=%d, update p50 %.4g ms, %s, %s\n", len(rounds), median(updates), tailNote("update", updates), tailNote("lookup", lookups))
	// attempted: every update batch, lookup and kernel call.
	attempted := int64(len(rounds)) * int64(2+3+fullSize.lookups)
	return outcome{attempted: attempted, e2e: m, untraced: map[string]float64{
		"insert": median(ins), "delete": median(del), "bfs": median(bfs), "pagerank": median(rank), "cc": median(cc),
	}}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
