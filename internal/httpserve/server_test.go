package httpserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lsgraph/internal/refgraph"
)

// getJSON fetches url and decodes the JSON body into v, returning the
// status code.
func getJSON(t *testing.T, client *http.Client, url string, v any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if v != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("GET %s: decode %q: %v", url, b, err)
		}
	}
	return resp.StatusCode
}

// postEdges sends one edge batch in the given format and returns the
// status code.
func postEdges(t *testing.T, client *http.Client, base, graph, op, format string, src, dst []uint32) int {
	t.Helper()
	var body []byte
	contentType := format
	switch format {
	case ContentTypeBinary:
		body = AppendBinaryEdges(nil, src, dst)
	case ContentTypeNDJSON:
		var b strings.Builder
		for i := range src {
			fmt.Fprintf(&b, "[%d,%d]\n", src[i], dst[i])
		}
		body = []byte(b.String())
	case "object":
		contentType = ContentTypeNDJSON
		var b strings.Builder
		for i := range src {
			fmt.Fprintf(&b, "{\"src\":%d,\"dst\":%d}\n", src[i], dst[i])
		}
		body = []byte(b.String())
	default:
		t.Fatalf("unknown format %q", format)
	}
	url := fmt.Sprintf("%s/v1/graphs/%s/edges?op=%s", base, graph, op)
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

type neighborsResp struct {
	Degree    uint32   `json:"degree"`
	Returned  int      `json:"returned"`
	Neighbors []uint32 `json:"neighbors"`
	Epoch     uint64   `json:"epoch"`
}

// TestServerE2E drives the full front-end the way production traffic
// would: concurrent multi-format ingest and snapshot-pinned reads/kernels
// (this test is in scripts/race.sh, so the interleavings run under
// -race), then a flush barrier, a differential adjacency check against
// the refgraph oracle, a delete pass, another differential check, and
// finally drain-on-shutdown: batches enqueued right before Close must be
// visible after it, and data endpoints must answer 503 from then on.
func TestServerE2E(t *testing.T) {
	const (
		nVerts     = 400
		numWriters = 6
		numBatches = 25
		batchLen   = 64
	)
	srv := New(Config{
		DefaultVertices: 64, // deliberately smaller than nVerts: exercises auto-grow
		DefaultShards:   2,
		DefaultMaxQueue: 16,
		AutoCreate:      false,
		MaxKernels:      2,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Create the graph explicitly, then re-create idempotently.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/e2e", strings.NewReader(`{"shards":2}`))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, want 201", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/e2e", strings.NewReader(`{"shards":2}`))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-create: status %d, want 200", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/e2e", strings.NewReader(`{"shards":4}`))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-create: status %d, want 409", resp.StatusCode)
	}

	// Concurrent ingest (all three wire formats) + concurrent reads and
	// kernels. Every accepted edge is recorded for the oracle; inserts are
	// set-semantic and commutative, so cross-writer order does not matter.
	var (
		acceptedMu sync.Mutex
		accSrc     []uint32
		accDst     []uint32
	)
	formats := []string{ContentTypeBinary, ContentTypeNDJSON, "object"}
	var writers sync.WaitGroup
	writersDone := make(chan struct{})
	for wi := 0; wi < numWriters; wi++ {
		writers.Add(1)
		go func(wi int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + wi)))
			for b := 0; b < numBatches; b++ {
				src := make([]uint32, batchLen)
				dst := make([]uint32, batchLen)
				for i := range src {
					src[i] = rng.Uint32() % nVerts
					dst[i] = rng.Uint32() % nVerts
				}
				format := formats[(wi+b)%len(formats)]
				for {
					status := postEdges(t, client, ts.URL, "e2e", "insert", format, src, dst)
					if status == http.StatusAccepted {
						break
					}
					if status != http.StatusTooManyRequests {
						t.Errorf("writer %d: ingest status %d", wi, status)
						return
					}
					time.Sleep(2 * time.Millisecond) // backpressure: retry
				}
				acceptedMu.Lock()
				accSrc = append(accSrc, src...)
				accDst = append(accDst, dst...)
				acceptedMu.Unlock()
			}
		}(wi)
	}
	var readers sync.WaitGroup
	for ri := 0; ri < 4; ri++ {
		readers.Add(1)
		go func(ri int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(2000 + ri)))
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				v := rng.Uint32() % nVerts
				var nr neighborsResp
				if status := getJSON(t, client, fmt.Sprintf("%s/v1/graphs/e2e/vertices/%d/neighbors", ts.URL, v), &nr); status != http.StatusOK {
					t.Errorf("neighbors: status %d", status)
					return
				}
				for i := 1; i < len(nr.Neighbors); i++ {
					if nr.Neighbors[i-1] >= nr.Neighbors[i] {
						t.Errorf("neighbors of %d not strictly ascending: %v", v, nr.Neighbors)
						return
					}
				}
				if nr.Returned != len(nr.Neighbors) || (nr.Returned < 1<<16 && nr.Degree != uint32(nr.Returned)) {
					t.Errorf("neighbors of %d: degree %d vs returned %d", v, nr.Degree, nr.Returned)
					return
				}
				if status := getJSON(t, client, fmt.Sprintf("%s/v1/graphs/e2e/vertices/%d/degree", ts.URL, v), nil); status != http.StatusOK {
					t.Errorf("degree: status %d", status)
					return
				}
				if status := getJSON(t, client, fmt.Sprintf("%s/v1/graphs/e2e/khop?src=%d&depth=2", ts.URL, v), nil); status != http.StatusOK {
					t.Errorf("khop: status %d", status)
					return
				}
				kernel := []string{"bfs", "pagerank", "cc"}[ri%3]
				kresp, err := client.Post(fmt.Sprintf("%s/v1/graphs/e2e/kernels/%s?src=%d", ts.URL, kernel, v), "", nil)
				if err != nil {
					t.Errorf("kernel: %v", err)
					return
				}
				io.Copy(io.Discard, kresp.Body)
				kresp.Body.Close()
				// Kernels may be shed by the concurrency cap; both outcomes
				// are correct here.
				if kresp.StatusCode != http.StatusOK && kresp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("kernel %s: status %d", kernel, kresp.StatusCode)
					return
				}
			}
		}(ri)
	}
	writers.Wait()
	close(writersDone)
	readers.Wait()
	if t.Failed() {
		return
	}

	// Flush barrier, then differential adjacency check vs the oracle.
	presp, err := client.Post(ts.URL+"/v1/graphs/e2e/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d", presp.StatusCode)
	}
	oracle := refgraph.New(nVerts)
	for i := range accSrc {
		oracle.Insert(accSrc[i], accDst[i])
	}
	diffCheck(t, client, ts.URL, "e2e", nVerts, oracle, "after concurrent ingest")

	// Delete a third of the accepted edges and re-check.
	var delSrc, delDst []uint32
	for i := 0; i < len(accSrc); i += 3 {
		delSrc = append(delSrc, accSrc[i])
		delDst = append(delDst, accDst[i])
		oracle.Delete(accSrc[i], accDst[i])
	}
	for {
		status := postEdges(t, client, ts.URL, "e2e", "delete", ContentTypeBinary, delSrc, delDst)
		if status == http.StatusAccepted {
			break
		}
		if status != http.StatusTooManyRequests {
			t.Fatalf("delete: status %d", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	presp, err = client.Post(ts.URL+"/v1/graphs/e2e/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	diffCheck(t, client, ts.URL, "e2e", nVerts, oracle, "after delete pass")

	// Drain-on-shutdown: enqueue a final burst with no flush, Close, and
	// verify the store applied it all (differentially, via the store
	// handle — the HTTP surface is 503 by then).
	rng := rand.New(rand.NewSource(4242))
	for b := 0; b < 8; b++ {
		src := make([]uint32, batchLen)
		dst := make([]uint32, batchLen)
		for i := range src {
			src[i] = rng.Uint32() % nVerts
			dst[i] = rng.Uint32() % nVerts
			oracle.Insert(src[i], dst[i])
		}
		for {
			status := postEdges(t, client, ts.URL, "e2e", "insert", ContentTypeBinary, src, dst)
			if status == http.StatusAccepted {
				break
			}
			if status != http.StatusTooManyRequests {
				t.Fatalf("final burst: status %d", status)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	store := srv.store("e2e")
	srv.Close()
	view := store.View()
	defer view.Release()
	for v := uint32(0); v < nVerts; v++ {
		got := view.Neighbors(v)
		want := oracle.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("drain-on-shutdown: vertex %d degree %d, oracle %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("drain-on-shutdown: vertex %d neighbor %d: got %d want %d", v, i, got[i], want[i])
			}
		}
	}

	// After Close: data plane answers 503, health reports draining.
	if status := postEdges(t, client, ts.URL, "e2e", "insert", ContentTypeBinary, []uint32{1}, []uint32{2}); status != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: status %d, want 503", status)
	}
	if status := getJSON(t, client, ts.URL+"/healthz", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: status %d, want 503", status)
	}
}

// diffCheck compares every vertex's adjacency served over HTTP with the
// oracle's.
func diffCheck(t *testing.T, client *http.Client, base, graph string, nVerts uint32, oracle *refgraph.Graph, when string) {
	t.Helper()
	for v := uint32(0); v < nVerts; v++ {
		var nr neighborsResp
		url := fmt.Sprintf("%s/v1/graphs/%s/vertices/%d/neighbors?limit=100000", base, graph, v)
		if status := getJSON(t, client, url, &nr); status != http.StatusOK {
			t.Fatalf("%s: neighbors(%d): status %d", when, v, status)
		}
		want := oracle.Neighbors(v)
		if len(nr.Neighbors) != len(want) {
			t.Fatalf("%s: vertex %d: degree %d, oracle %d", when, v, len(nr.Neighbors), len(want))
		}
		for i := range want {
			if nr.Neighbors[i] != want[i] {
				t.Fatalf("%s: vertex %d neighbor %d: got %d want %d", when, v, i, nr.Neighbors[i], want[i])
			}
		}
	}
}

// TestBackpressure429 drives a store into queue saturation (a large batch
// holds the writer busy while small ones stack up behind it) and asserts
// the admission controller sheds with 429 + Retry-After.
func TestBackpressure429(t *testing.T) {
	srv := New(Config{DefaultShards: 1, DefaultMaxQueue: 1, AutoCreate: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(9))
	const bigLen = 1 << 20
	const vertSpace = 1 << 17 // bound IDs: the store grows to max vertex seen
	bigSrc := make([]uint32, bigLen)
	bigDst := make([]uint32, bigLen)
	for i := range bigSrc {
		bigSrc[i] = rng.Uint32() % vertSpace
		bigDst[i] = rng.Uint32() % vertSpace
	}
	// Create the graph, then saturate its writer queue by enqueueing big
	// batches directly through the store — enqueue is instant while each
	// 1M-edge apply takes the writer a long while, so the queue reliably
	// sits at its MaxQueue=1 bound. (Filling over HTTP instead would race
	// the decode of each 8 MiB body against the apply, which the race
	// detector's instrumentation can invert.) Probes still go over HTTP:
	// the admission path under test.
	if status := postEdges(t, client, ts.URL, "bp", "insert", ContentTypeBinary, []uint32{1}, []uint32{2}); status != http.StatusAccepted {
		t.Fatalf("create ingest: status %d", status)
	}
	st := srv.store("bp")
	// Keep refilling whenever the queue dips below the bound and probe
	// with small HTTP ingests until one is shed; a probe only counts when
	// Saturated() held at send time.
	deadline := time.Now().Add(30 * time.Second)
	sheds := 0
	for sheds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no 429 observed while writer queue was saturated")
		}
		if !st.Saturated() {
			st.InsertBatch(bigSrc, bigDst)
			continue
		}
		resp, err := client.Post(ts.URL+"/v1/graphs/bp/edges", ContentTypeBinary,
			bytes.NewReader(AppendBinaryEdges(nil, []uint32{1}, []uint32{2})))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			sheds++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After header")
			}
			if !bytes.Contains(body, []byte("saturated")) {
				t.Fatalf("429 body %q does not explain saturation", body)
			}
		}
	}
	// Shed requests must not have been half-ingested: drain and verify the
	// edge count matches what was accepted (2 big batches + any accepted
	// singles, each set-deduplicated by the engine — just assert the store
	// drains and serves again).
	presp, err := client.Post(ts.URL+"/v1/graphs/bp/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d", presp.StatusCode)
	}
	resp, err := client.Post(ts.URL+"/v1/graphs/bp/edges", ContentTypeBinary,
		bytes.NewReader(AppendBinaryEdges(nil, []uint32{1}, []uint32{2})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after drain: status %d, want 202", resp.StatusCode)
	}
}

// TestKernelAdmission fills the kernel semaphore and asserts kernels shed
// with 429 + Retry-After while it is full.
func TestKernelAdmission(t *testing.T) {
	srv := New(Config{AutoCreate: true, MaxKernels: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	if status := postEdges(t, client, ts.URL, "k", "insert", ContentTypeBinary, []uint32{0, 1}, []uint32{1, 0}); status != http.StatusAccepted {
		t.Fatalf("seed ingest: status %d", status)
	}
	srv.kernelSem <- struct{}{} // occupy the only slot
	resp, err := client.Post(ts.URL+"/v1/graphs/k/kernels/cc", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("kernel while full: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	<-srv.kernelSem
	resp, err = client.Post(ts.URL+"/v1/graphs/k/kernels/cc", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kernel after release: status %d, want 200", resp.StatusCode)
	}
}

// TestKernelEndpoints checks the kernel summaries on a known graph: a
// symmetrized path 0-1-2-3 inside a 16-vertex space.
func TestKernelEndpoints(t *testing.T) {
	srv := New(Config{DefaultVertices: 16, AutoCreate: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	src := []uint32{0, 1, 1, 2, 2, 3}
	dst := []uint32{1, 0, 2, 1, 3, 2}
	if status := postEdges(t, client, ts.URL, "path", "insert", ContentTypeNDJSON, src, dst); status != http.StatusAccepted {
		t.Fatalf("ingest: status %d", status)
	}
	if resp, err := client.Post(ts.URL+"/v1/graphs/path/flush", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	var bfs struct {
		Reached  int   `json:"reached"`
		MaxDepth int32 `json:"max_depth"`
	}
	resp, err := client.Post(ts.URL+"/v1/graphs/path/kernels/bfs?src=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&bfs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if bfs.Reached != 4 || bfs.MaxDepth != 3 {
		t.Fatalf("bfs: reached=%d max_depth=%d, want 4/3", bfs.Reached, bfs.MaxDepth)
	}
	// A source beyond the vertex space reaches nothing rather than
	// failing the request.
	resp, err = client.Post(ts.URL+"/v1/graphs/path/kernels/bfs?src=1000", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	bfs.Reached, bfs.MaxDepth = -1, 0
	if err := json.NewDecoder(resp.Body).Decode(&bfs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || bfs.Reached != 0 || bfs.MaxDepth != -1 {
		t.Fatalf("bfs from unknown src: status %d reached=%d max_depth=%d, want 200 0/-1",
			resp.StatusCode, bfs.Reached, bfs.MaxDepth)
	}

	var cc struct {
		Components int `json:"components"`
		Largest    int `json:"largest"`
	}
	resp, err = client.Post(ts.URL+"/v1/graphs/path/kernels/cc", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// 16 vertex slots: the 4-vertex path plus 12 singletons.
	if cc.Components != 13 || cc.Largest != 4 {
		t.Fatalf("cc: components=%d largest=%d, want 13/4", cc.Components, cc.Largest)
	}

	var pr struct {
		Top []struct {
			Vertex uint32  `json:"vertex"`
			Rank   float64 `json:"rank"`
		} `json:"top"`
	}
	resp, err = client.Post(ts.URL+"/v1/graphs/path/kernels/pagerank?iters=20&top=4", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pr.Top) != 4 {
		t.Fatalf("pagerank: got %d top entries, want 4", len(pr.Top))
	}
	for i := 1; i < len(pr.Top); i++ {
		if pr.Top[i-1].Rank < pr.Top[i].Rank {
			t.Fatalf("pagerank top not descending: %+v", pr.Top)
		}
	}
	// The path's middle vertices (1, 2) out-rank its endpoints, which
	// out-rank the singletons.
	if v := pr.Top[0].Vertex; v != 1 && v != 2 {
		t.Fatalf("pagerank: top vertex %d, want 1 or 2", v)
	}
}

// TestKhop checks the bounded traversal on the same path graph.
func TestKhop(t *testing.T) {
	srv := New(Config{DefaultVertices: 8, AutoCreate: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	src := []uint32{0, 1, 1, 2, 2, 3}
	dst := []uint32{1, 0, 2, 1, 3, 2}
	if status := postEdges(t, client, ts.URL, "kh", "insert", ContentTypeBinary, src, dst); status != http.StatusAccepted {
		t.Fatalf("ingest: status %d", status)
	}
	if resp, err := client.Post(ts.URL+"/v1/graphs/kh/flush", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	var kr struct {
		Reached   int   `json:"reached"`
		Frontiers []int `json:"frontiers"`
	}
	if status := getJSON(t, client, ts.URL+"/v1/graphs/kh/khop?src=0&depth=2", &kr); status != http.StatusOK {
		t.Fatalf("khop: status %d", status)
	}
	// From 0 on the path: hop 1 reaches {1}, hop 2 reaches {2}.
	if kr.Reached != 3 || len(kr.Frontiers) != 2 || kr.Frontiers[0] != 1 || kr.Frontiers[1] != 1 {
		t.Fatalf("khop: reached=%d frontiers=%v, want 3/[1 1]", kr.Reached, kr.Frontiers)
	}
}

// TestGraphLifecycleHTTP covers list, stats, drop, and the 404 paths.
func TestGraphLifecycleHTTP(t *testing.T) {
	srv := New(Config{AutoCreate: false})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	if status := postEdges(t, client, ts.URL, "nope", "insert", ContentTypeBinary, []uint32{1}, []uint32{2}); status != http.StatusNotFound {
		t.Fatalf("ingest into missing graph: status %d, want 404", status)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/a", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var list struct {
		Graphs []struct {
			Name   string `json:"name"`
			Shards int    `json:"shards"`
		} `json:"graphs"`
	}
	if status := getJSON(t, client, ts.URL+"/v1/graphs", &list); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "a" {
		t.Fatalf("list: %+v", list)
	}
	if status := getJSON(t, client, ts.URL+"/v1/graphs/a", nil); status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/a", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: status %d", resp.StatusCode)
	}
	if status := getJSON(t, client, ts.URL+"/v1/graphs/a", nil); status != http.StatusNotFound {
		t.Fatalf("stats after drop: status %d, want 404", status)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/no%20good", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name: status %d, want 400", resp.StatusCode)
	}
}

// TestRebalanceEndpoint drives the admin resharding route end to end: a
// skewed ingest onto a 4-shard graph, POST /rebalance, and introspection
// of the new layout through the graph summary and /healthz. The data
// plane must agree with the oracle before and after the map changes.
func TestRebalanceEndpoint(t *testing.T) {
	srv := New(Config{DefaultShards: 4, DefaultVertices: 2048, AutoCreate: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Skewed batch: all sources inside the first shard's initial range.
	oracle := refgraph.New(2048)
	var src, dst []uint32
	for i := uint32(0); i < 6000; i++ {
		s, d := i%48, (i*31+7)%2048
		src, dst = append(src, s), append(dst, d)
		oracle.Insert(s, d)
	}
	if code := postEdges(t, client, ts.URL, "skewed", "insert", ContentTypeBinary, src, dst); code != http.StatusAccepted {
		t.Fatalf("ingest: %d", code)
	}
	getJSON(t, client, ts.URL+"/v1/graphs/skewed", nil) // force existence
	resp, err := client.Post(ts.URL+"/v1/graphs/skewed/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var reb struct {
		Result struct {
			Moves         int     `json:"moves"`
			SkewPctBefore float64 `json:"skew_pct_before"`
			SkewPctAfter  float64 `json:"skew_pct_after"`
			MapEpoch      uint64  `json:"map_epoch"`
		} `json:"result"`
		Partition struct {
			Epoch  uint64   `json:"epoch"`
			Starts []uint32 `json:"starts"`
		} `json:"partition"`
	}
	resp, err = client.Post(ts.URL+"/v1/graphs/skewed/rebalance", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reb.Result.Moves == 0 || reb.Result.SkewPctAfter > reb.Result.SkewPctBefore/2 {
		t.Fatalf("rebalance ineffective: %+v", reb.Result)
	}
	if reb.Partition.Epoch == 0 || len(reb.Partition.Starts) != 4 {
		t.Fatalf("partition after rebalance: %+v", reb.Partition)
	}

	// Unknown graph: 404.
	resp, err = client.Post(ts.URL+"/v1/graphs/nope/rebalance", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rebalance on missing graph: %d", resp.StatusCode)
	}

	// The summary and health endpoints expose the new map.
	var sum struct {
		Partition struct {
			Epoch   uint64  `json:"epoch"`
			SkewPct float64 `json:"skew_pct"`
		} `json:"partition"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/graphs/skewed", &sum); code != http.StatusOK {
		t.Fatalf("summary: %d", code)
	}
	if sum.Partition.Epoch != reb.Partition.Epoch {
		t.Fatalf("summary epoch %d, rebalance said %d", sum.Partition.Epoch, reb.Partition.Epoch)
	}
	var hz struct {
		Partitions map[string]struct {
			Epoch uint64 `json:"epoch"`
		} `json:"partitions"`
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Partitions["skewed"].Epoch != reb.Partition.Epoch {
		t.Fatalf("healthz epoch %d, want %d", hz.Partitions["skewed"].Epoch, reb.Partition.Epoch)
	}

	// The data plane still matches the oracle exactly.
	diffCheck(t, client, ts.URL, "skewed", 2048, oracle, "after rebalance")
}
