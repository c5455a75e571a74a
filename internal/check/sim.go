package check

import (
	"encoding/base64"
	"fmt"
	"math"
	"math/rand"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
)

// Mode selects which surface the simulator drives.
type Mode uint8

const (
	// ModeCore drives a bare core.Graph: synchronous batches (exclusive
	// update contract), explicit growth, Snapshot views.
	ModeCore Mode = iota
	// ModeStore drives a serve.Store: asynchronous enqueue with a small
	// queue bound (so backpressure coalescing triggers), View pinning and
	// Flatten, Flush-then-compare verification.
	ModeStore
)

// String names the mode for test labels and replay commands: "core" or
// "store".
func (m Mode) String() string {
	if m == ModeStore {
		return "store"
	}
	return "core"
}

// Fault injects an engine-side bug for harness self-tests: inserted edges
// whose destination satisfies dst % Mod == Eq are silently dropped before
// reaching the engine (the oracle still sees them), so a working harness
// must report a divergence. The zero value injects nothing.
type Fault struct {
	Mod, Eq uint32
}

func (f Fault) drops(dst uint32) bool { return f.Mod != 0 && dst%f.Mod == f.Eq }

// SimConfig parameterizes one simulated workload.
type SimConfig struct {
	// Shards is the engine's vertex-space partition count (default 1).
	Shards int
	// Mode selects core.Graph or serve.Store as the surface under test.
	Mode Mode
	// Fault, when non-zero, injects a deliberate engine-side bug so tests
	// can prove the harness catches and shrinks real divergences.
	Fault Fault
}

// simMaxVertex is the generated vertex-ID universe. It is kept below 256
// so one byte encodes an ID, and small enough that duplicate edges,
// re-inserts, and deletes of live edges all occur constantly.
const simMaxVertex = 192

// simInitVerts is the engine's initial vertex-space size: deliberately
// tiny so nearly every workload exercises vertex-space growth.
const simInitVerts = 8

// simMaxBatch bounds the edges per generated batch.
const simMaxBatch = 40

// opKind enumerates the simulator's operations.
type opKind uint8

const (
	opInsert    opKind = iota // apply an insert batch (dups and re-inserts included)
	opDelete                  // apply a delete batch (absent edges included)
	opGrow                    // grow the vertex space explicitly
	opVerify                  // full lockstep comparison against the oracle
	opKernel                  // run one analytics kernel on engine and oracle
	opView                    // pin a view/snapshot mid-stream and validate it
	opRebalance               // move a partition boundary, then fully verify
)

func (k opKind) String() string {
	switch k {
	case opInsert:
		return "insert"
	case opDelete:
		return "delete"
	case opGrow:
		return "grow"
	case opVerify:
		return "verify"
	case opKernel:
		return "kernel"
	case opRebalance:
		return "rebalance"
	default:
		return "view"
	}
}

// op is one decoded simulator operation.
type op struct {
	kind     opKind
	src, dst []uint32 // insert/delete batches
	sel      byte     // raw selector byte for grow deltas and kernel choice
}

// decodeProgram turns an arbitrary byte string into an op sequence. Every
// byte string is a valid program (fuzzing needs totality): the ten
// op-kind selectors weight inserts 3x and deletes 2x, batches read one
// count byte plus two bytes per edge, and truncated records are clipped
// to the bytes available. The same decoder serves the seeded simulator,
// both engine-level fuzz targets, and replay.
func decodeProgram(data []byte) []op {
	var ops []op
	for len(data) > 0 {
		k := data[0] % 10
		data = data[1:]
		switch {
		case k <= 2: // inserts get 3/10 weight
			var o op
			o, data = decodeBatch(opInsert, data)
			if len(o.src) > 0 {
				ops = append(ops, o)
			}
		case k <= 4: // deletes 2/10
			var o op
			o, data = decodeBatch(opDelete, data)
			if len(o.src) > 0 {
				ops = append(ops, o)
			}
		case k == 5:
			ops = append(ops, op{kind: opVerify})
		case k == 6:
			if len(data) == 0 {
				return ops
			}
			ops = append(ops, op{kind: opKernel, sel: data[0]})
			data = data[1:]
		case k == 7:
			if len(data) == 0 {
				return ops
			}
			ops = append(ops, op{kind: opGrow, sel: data[0]})
			data = data[1:]
		case k == 8:
			ops = append(ops, op{kind: opView})
		default:
			if len(data) == 0 {
				return ops
			}
			ops = append(ops, op{kind: opRebalance, sel: data[0]})
			data = data[1:]
		}
	}
	return ops
}

// decodeBatch reads one count byte and up to simMaxBatch (src,dst) byte
// pairs, clipping to the bytes available.
func decodeBatch(kind opKind, data []byte) (op, []byte) {
	if len(data) == 0 {
		return op{kind: kind}, nil
	}
	cnt := 1 + int(data[0])%simMaxBatch
	data = data[1:]
	if have := len(data) / 2; cnt > have {
		cnt = have
	}
	o := op{kind: kind, src: make([]uint32, cnt), dst: make([]uint32, cnt)}
	for i := 0; i < cnt; i++ {
		o.src[i] = uint32(data[2*i]) % simMaxVertex
		o.dst[i] = uint32(data[2*i+1]) % simMaxVertex
	}
	return o, data[2*cnt:]
}

// encodeOps is decodeProgram's canonical inverse: the returned bytes
// decode back to exactly ops. The shrinker minimizes on the op list and
// re-encodes the survivor for the replay command.
func encodeOps(ops []op) []byte {
	var out []byte
	for _, o := range ops {
		switch o.kind {
		case opInsert, opDelete:
			sel := byte(0)
			if o.kind == opDelete {
				sel = 3
			}
			out = append(out, sel, byte(len(o.src)-1))
			for i := range o.src {
				out = append(out, byte(o.src[i]), byte(o.dst[i]))
			}
		case opVerify:
			out = append(out, 5)
		case opKernel:
			out = append(out, 6, o.sel)
		case opGrow:
			out = append(out, 7, o.sel)
		case opView:
			out = append(out, 8)
		case opRebalance:
			out = append(out, 9, o.sel)
		}
	}
	return out
}

// runner executes one op sequence on a fresh engine in lockstep with a
// fresh oracle.
type runner struct {
	cfg       SimConfig
	g         *core.Graph
	st        *serve.Store
	ref       *refgraph.Graph
	lastEpoch uint64
}

// runOps builds the configured surface, executes ops in lockstep against
// the oracle, runs a final full verification, and reports the first
// divergence or invariant violation. Panics on the caller's goroutine
// (corrupt offsets, routing bugs) are converted to errors so the shrinker
// and fuzz targets can treat them like any other failure.
func runOps(ops []op, cfg SimConfig) (err error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	r := &runner{
		cfg: cfg,
		g:   core.New(simInitVerts, core.Config{Shards: cfg.Shards, Workers: 2}),
		ref: refgraph.New(simInitVerts),
	}
	if cfg.Mode == ModeStore {
		r.st = serve.New(r.g, serve.Options{MaxQueue: 4, MaxFree: 2})
		defer r.st.Close()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	for i, o := range ops {
		if err := r.step(o); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, o.kind, err)
		}
	}
	if err := r.verify(); err != nil {
		return fmt.Errorf("final verify: %w", err)
	}
	return nil
}

func (r *runner) step(o op) error {
	switch o.kind {
	case opInsert:
		return r.insert(o)
	case opDelete:
		return r.delete(o)
	case opGrow:
		n := r.ref.NumVertices() + 1 + uint32(o.sel)%16
		if r.cfg.Mode == ModeStore {
			// The serving layer has no explicit grow; reserving the logical
			// bound is its documented concurrent-safe growth path.
			r.g.ReserveVertices(n)
		} else {
			r.g.EnsureVertices(n)
		}
		r.ref.EnsureVertices(n)
		return nil
	case opVerify:
		return r.verify()
	case opKernel:
		return r.kernel(o.sel)
	case opRebalance:
		return r.rebalance(o.sel)
	default:
		return r.view()
	}
}

// rebalance derives a legal boundary move from the selector byte (which
// boundary, and where in its legal window the new start lands), executes
// it through the mode's surface, and immediately re-verifies the full
// graph against the oracle — splices must be invisible to every read
// surface. Selectors with no legal move (single shard, or adjacent
// boundaries with no room) and moves the engine rejects as no-ops
// (core.ErrNoMove) decode to nothing.
func (r *runner) rebalance(sel byte) error {
	S := r.cfg.Shards
	if S < 2 {
		return nil
	}
	pm := r.g.PartitionMap()
	n := r.g.NumVertices()
	k := int(sel) % (S - 1)
	// Legal new starts for boundary k keep every shard non-empty:
	// (Starts[k], next) exclusive, where next is the following boundary.
	lo := pm.Starts[k] + 1
	hi := n
	if k+2 < S {
		hi = pm.Starts[k+2]
	}
	if hi <= lo {
		return nil
	}
	h := uint32(sel) * 0x9E3779B1 // decorrelate the cut from the boundary choice
	cut := lo + (h>>8)%(hi-lo)
	var err error
	if r.cfg.Mode == ModeStore {
		_, _, err = r.st.MoveBoundary(k, cut)
	} else {
		_, _, err = r.g.MoveBoundary(k, cut)
	}
	if err == core.ErrNoMove {
		return nil
	}
	if err != nil {
		return fmt.Errorf("MoveBoundary(%d, %d): %w", k, cut, err)
	}
	return r.verify()
}

// batchBound returns 1 + the largest ID the batch references.
func batchBound(src, dst []uint32) uint32 {
	var b uint32
	for i := range src {
		if src[i]+1 > b {
			b = src[i] + 1
		}
		if dst[i]+1 > b {
			b = dst[i] + 1
		}
	}
	return b
}

func (r *runner) insert(o op) error {
	src, dst := o.src, o.dst
	if f := r.cfg.Fault; f.Mod != 0 {
		fs := make([]uint32, 0, len(src))
		fd := make([]uint32, 0, len(dst))
		for i := range src {
			if !f.drops(dst[i]) {
				fs = append(fs, src[i])
				fd = append(fd, dst[i])
			}
		}
		src, dst = fs, fd
	}
	bound := batchBound(o.src, o.dst)
	r.ref.EnsureVertices(bound)
	if r.cfg.Mode == ModeStore {
		r.st.InsertBatch(src, dst)
	} else {
		r.g.EnsureVertices(bound)
		r.g.InsertBatch(src, dst)
	}
	for i := range o.src {
		r.ref.Insert(o.src[i], o.dst[i])
	}
	return nil
}

func (r *runner) delete(o op) error {
	bound := batchBound(o.src, o.dst)
	r.ref.EnsureVertices(bound)
	if r.cfg.Mode == ModeStore {
		r.st.DeleteBatch(o.src, o.dst)
	} else {
		r.g.EnsureVertices(bound)
		r.g.DeleteBatch(o.src, o.dst)
	}
	for i := range o.src {
		r.ref.Delete(o.src[i], o.dst[i])
	}
	return nil
}

// verify is the full lockstep comparison: structural invariants of every
// live shard and overflow structure, then exact vertex/edge/adjacency
// agreement with the oracle, then CSR consistency of a fresh snapshot
// (ModeCore) or of the flattened composed view (ModeStore, after Flush,
// with epoch monotonicity).
func (r *runner) verify() error {
	if r.cfg.Mode == ModeStore {
		r.st.Flush()
		v := r.st.View()
		defer v.Release()
		if e := v.Epoch(); e < r.lastEpoch {
			return fmt.Errorf("view epoch moved backwards: %d after %d", e, r.lastEpoch)
		} else {
			r.lastEpoch = e
		}
		if err := compareGraphs(v, r.ref); err != nil {
			return err
		}
		if err := Snapshot(v.Flatten(), r.ref); err != nil {
			return err
		}
		// Flush drained every shard queue and the test goroutine is the
		// only enqueuer, so the writers are quiescent: the deep shard walk
		// is safe here.
		return Shards(r.g)
	}
	if err := Shards(r.g); err != nil {
		return err
	}
	if err := compareGraphs(r.g, r.ref); err != nil {
		return err
	}
	if err := r.hasProbes(); err != nil {
		return err
	}
	return Snapshot(r.g.Snapshot(), r.ref)
}

// hasProbes spot-checks the point-lookup path (inline search plus
// overflow Has), which full adjacency comparison does not exercise.
func (r *runner) hasProbes() error {
	n := r.ref.NumVertices()
	if n == 0 {
		return nil
	}
	for s := uint32(0); s < 8; s++ {
		v := (s * 37) % n
		u := (s*53 + 11) % n
		if got, want := r.g.Has(v, u), r.ref.Has(v, u); got != want {
			return fmt.Errorf("Has(%d,%d) = %v, oracle %v", v, u, got, want)
		}
	}
	return nil
}

// compareGraphs asserts got and the oracle agree exactly on vertex count,
// edge count, every degree, and every adjacency list.
func compareGraphs(got BlockGraph, ref *refgraph.Graph) error {
	if g, w := got.NumVertices(), ref.NumVertices(); g != w {
		return fmt.Errorf("NumVertices %d, oracle %d", g, w)
	}
	if g, w := got.NumEdges(), ref.NumEdges(); g != w {
		return fmt.Errorf("NumEdges %d, oracle %d", g, w)
	}
	for v := uint32(0); v < ref.NumVertices(); v++ {
		if g, w := got.Degree(v), ref.Degree(v); g != w {
			return fmt.Errorf("Degree(%d) = %d, oracle %d", v, g, w)
		}
		ns := engine.Neighbors(got, v)
		want := ref.Neighbors(v)
		if len(ns) != len(want) {
			return fmt.Errorf("vertex %d yields %d neighbors, oracle %d", v, len(ns), len(want))
		}
		for i := range ns {
			if ns[i] != want[i] {
				return fmt.Errorf("vertex %d neighbor %d: got %d, oracle %d", v, i, ns[i], want[i])
			}
		}
	}
	// The per-edge surface matched the oracle; the block surface must
	// re-segment it exactly.
	return Blocks(got)
}

// kernel runs one analytics kernel. ModeCore compares the kernel's result
// on the live graph against the oracle. ModeStore flushes, pins a view,
// and compares the kernel on the composed view against both the oracle
// and the view's own flattened CSR (composed-vs-flat equivalence).
func (r *runner) kernel(sel byte) error {
	n := r.ref.NumVertices()
	if n == 0 {
		return nil
	}
	if r.cfg.Mode == ModeStore {
		r.st.Flush()
		v := r.st.View()
		defer v.Release()
		if err := runKernelPair(sel, v, r.ref, n); err != nil {
			return fmt.Errorf("view vs oracle: %w", err)
		}
		if err := runKernelPair(sel, v, v.Flatten(), n); err != nil {
			return fmt.Errorf("view vs flattened: %w", err)
		}
		return nil
	}
	return runKernelPair(sel, r.g, r.ref, n)
}

// runKernelPair runs the selected kernel on both graphs (single worker,
// so float accumulation order is identical) and compares results.
func runKernelPair(sel byte, a, b engine.Graph, n uint32) error {
	switch src := uint32(sel) % n; sel % 5 {
	case 0:
		if err := equalInt32s(algo.BFSLevels(a, src, 1), algo.BFSLevels(b, src, 1)); err != nil {
			return fmt.Errorf("BFSLevels(%d): %w", src, err)
		}
	case 1:
		if err := equalUint32s(algo.CC(a, 1), algo.CC(b, 1)); err != nil {
			return fmt.Errorf("CC: %w", err)
		}
	case 2:
		if err := equalFloats(algo.PageRank(a, 5, 1), algo.PageRank(b, 5, 1)); err != nil {
			return fmt.Errorf("PageRank: %w", err)
		}
	case 3:
		if err := equalUint32s(algo.KCore(a, 1), algo.KCore(b, 1)); err != nil {
			return fmt.Errorf("KCore: %w", err)
		}
	default:
		if ta, tb := algo.TriangleCount(a, 1).Triangles, algo.TriangleCount(b, 1).Triangles; ta != tb {
			return fmt.Errorf("TriangleCount: %d vs %d", ta, tb)
		}
	}
	return nil
}

func equalInt32s(a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("index %d: %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}

func equalUint32s(a, b []uint32) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("index %d: %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}

func equalFloats(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return fmt.Errorf("index %d: %g vs %g", i, a[i], b[i])
		}
	}
	return nil
}

// view exercises mid-stream read paths without quiescing the writers:
// ModeStore pins a composed view while batches may still be in flight and
// checks its self-consistency (well-formed CSR after Flatten, degree sums
// matching NumEdges, sorted in-range adjacency, epoch monotonicity);
// ModeCore takes a snapshot and checks it for CSR well-formedness.
func (r *runner) view() error {
	if r.cfg.Mode != ModeStore {
		snap := r.g.Snapshot()
		if err := Snapshot(snap, nil); err != nil {
			return err
		}
		if snap.NumEdges() != r.g.NumEdges() {
			return fmt.Errorf("snapshot has %d edges, graph %d", snap.NumEdges(), r.g.NumEdges())
		}
		return nil
	}
	v := r.st.View()
	defer v.Release()
	if e := v.Epoch(); e < r.lastEpoch {
		return fmt.Errorf("view epoch moved backwards: %d after %d", e, r.lastEpoch)
	} else {
		r.lastEpoch = e
	}
	n := v.NumVertices()
	var m uint64
	for u := uint32(0); u < n; u++ {
		ns := v.Neighbors(u)
		if uint32(len(ns)) != v.Degree(u) {
			return fmt.Errorf("view vertex %d: %d neighbors but degree %d", u, len(ns), v.Degree(u))
		}
		for i, w := range ns {
			if w >= n {
				return fmt.Errorf("view vertex %d neighbor %d outside [0,%d)", u, w, n)
			}
			if i > 0 && w <= ns[i-1] {
				return fmt.Errorf("view vertex %d adjacency unsorted at %d", u, i)
			}
		}
		m += uint64(len(ns))
	}
	if m != v.NumEdges() {
		return fmt.Errorf("view degree sum %d != NumEdges %d", m, v.NumEdges())
	}
	flat := v.Flatten()
	if err := Snapshot(flat, nil); err != nil {
		return err
	}
	if flat.NumEdges() != v.NumEdges() {
		return fmt.Errorf("flattened view has %d edges, view %d", flat.NumEdges(), v.NumEdges())
	}
	for u := uint32(0); u < n; u++ {
		if flat.Degree(u) != v.Degree(u) {
			return fmt.Errorf("flattened degree(%d) = %d, view %d", u, flat.Degree(u), v.Degree(u))
		}
	}
	return nil
}

// shrinkBudget bounds the number of candidate re-executions one shrink
// may spend, keeping worst-case failure reporting fast.
const shrinkBudget = 250

// shrinkOps minimizes a failing op sequence with bounded delta-debugging:
// remove geometrically shrinking chunks of ops, then halve and trim edge
// lists inside the surviving batches, keeping every candidate that still
// fails. The result is the smallest failing sequence found within the
// budget (always itself a failing program, never empty).
func shrinkOps(ops []op, cfg SimConfig) []op {
	budget := shrinkBudget
	fails := func(cand []op) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return runOps(cand, cfg) != nil
	}
	cur := ops
	for changed := true; changed && budget > 0; {
		changed = false
		// Remove chunks of ops, largest first.
		for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
			for i := 0; i+chunk <= len(cur) && budget > 0; {
				cand := make([]op, 0, len(cur)-chunk)
				cand = append(cand, cur[:i]...)
				cand = append(cand, cur[i+chunk:]...)
				if fails(cand) {
					cur, changed = cand, true
				} else {
					i += chunk
				}
			}
		}
		// Shrink edge lists inside the surviving batches: try each half,
		// then dropping the last edge, as long as something sticks.
		for i := 0; i < len(cur) && budget > 0; i++ {
			if cur[i].kind != opInsert && cur[i].kind != opDelete {
				continue
			}
			for len(cur[i].src) > 1 && budget > 0 {
				o, n := cur[i], len(cur[i].src)
				shrunk := false
				for _, b := range [][2]int{{0, n / 2}, {n / 2, n}, {0, n - 1}} {
					cand := append([]op{}, cur...)
					cand[i] = op{kind: o.kind, src: o.src[b[0]:b[1]], dst: o.dst[b[0]:b[1]]}
					if fails(cand) {
						cur, shrunk, changed = cand, true, true
						break
					}
				}
				if !shrunk {
					break
				}
			}
		}
	}
	return cur
}

// genProgram derives a deterministic random byte program from seed;
// lengths vary between roughly 100 and 500 bytes so workloads span a few
// ops to several dozen.
func genProgram(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 96+rng.Intn(416))
	rng.Read(data)
	return data
}

// RunBytes decodes one byte program (any byte string is valid — the same
// decoder backs the fuzz targets) and executes it under cfg, without
// shrinking. It returns the first divergence or invariant violation.
func RunBytes(data []byte, cfg SimConfig) error {
	return runOps(decodeProgram(data), cfg)
}

// RunSeed generates the seed's workload, executes it under cfg and, on
// failure, shrinks the program to a minimal failing op sequence. The
// returned error carries the minimized divergence plus two replay
// commands: an exact-program replay (TestSimReplay reads the base64
// program from the environment) and the full-seed rerun.
func RunSeed(seed int64, cfg SimConfig) error {
	ops := decodeProgram(genProgram(seed))
	err := runOps(ops, cfg)
	if err == nil {
		return nil
	}
	min := shrinkOps(ops, cfg)
	merr := runOps(min, cfg)
	if merr == nil {
		// The shrunk sequence no longer reproduces (timing-dependent
		// failure); report the original program instead.
		min, merr = ops, err
	}
	prog := base64.StdEncoding.EncodeToString(encodeOps(min))
	return fmt.Errorf("differential simulator failed (seed %d, shards %d, mode %s): %w\n"+
		"minimized to %d ops (from %d); replay the minimal program with:\n"+
		"  LSGRAPH_CHECK_REPLAY=%s LSGRAPH_CHECK_SHARDS=%d LSGRAPH_CHECK_MODE=%s go test -run 'TestSimReplay' ./internal/check\n"+
		"or rerun the full seed with:\n"+
		"  go test -run 'TestSimSeeds/%s/shards=%d/seed=%d' ./internal/check",
		seed, cfg.Shards, cfg.Mode, merr,
		len(min), len(ops),
		prog, cfg.Shards, cfg.Mode,
		cfg.Mode, cfg.Shards, seed)
}
