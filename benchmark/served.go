package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"lsgraph/internal/gen"
	"lsgraph/internal/httpserve"
)

// The served workloads drive a real lsgraphd child process with the
// daemon's durable defaults: -data <dir> -fsync interval -shards 2, and
// metrics on. Load comes from this one process over at most maxConns
// connections.
const (
	maxConns     = 2
	graphName    = "g"
	preloadBatch = 1 << 16 // edges per preload request
	preloadGroup = 8       // preload requests between flushes
	servedSetups = 3       // set-ups per run; setup_s is their median
	checkSample  = 2000    // vertices whose degree each final check compares
	lookupPasses = 5       // passes over the sample timed after ingest
	// restarts is the number of kill-and-restart cycles; recover_s is the
	// fastest. Replaying the same WAL took either about 0.7 s or about
	// 1.2 s on the 2-core host, as its vCPUs came and went, so a median of
	// five flipped between the two.
	restarts       = 5
	analyticsPass  = 5 // kernel passes after ingest; analytics_ms is their median
	requestTimeout = 30 * time.Second
	bootTimeout    = 120 * time.Second
)

// daemon is one lsgraphd child process.
type daemon struct {
	cmd  *exec.Cmd
	log  *os.File
	base string // http://127.0.0.1:port
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots lsgraphd on dataDir and waits until /healthz answers.
func startDaemon(c config, dataDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(c.workDir, "lsgraphd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(c.daemon, "-addr", addr, "-data", dataDir, "-fsync", "interval", "-shards", "2")
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without reaching its deferred kill, the kernel
	// kills the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start lsgraphd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, base: "http://" + addr}
	if err := d.waitHealthy(); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy() error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(bootTimeout)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("lsgraphd at %s not healthy after %s", d.base, bootTimeout)
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if already gone
		_ = d.cmd.Wait()                          // a killed child exits non-zero
	}
	d.log.Close()
}

// client talks to one daemon over at most maxConns connections.
type client struct {
	hc   *http.Client
	base string // graph URL prefix
}

func newClient(d *daemon) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{
		hc:   &http.Client{Transport: tr, Timeout: requestTimeout},
		base: d.base + "/v1/graphs/" + graphName,
	}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// errStatus is a non-2xx answer.
type errStatus int

func (e errStatus) Error() string { return "HTTP " + strconv.Itoa(int(e)) }

// do sends one request and decodes a JSON answer into out (when non-nil).
func (cl *client) do(method, path, ctype string, body []byte, out any) error {
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return errStatus(resp.StatusCode)
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

func (cl *client) postEdges(body []byte) error {
	return cl.do("POST", "/edges", httpserve.ContentTypeBinary, body, nil)
}

func (cl *client) flush() error { return cl.do("POST", "/flush", "", nil, nil) }

func (cl *client) numEdges() (uint64, error) {
	var s struct {
		Edges uint64 `json:"edges"`
	}
	err := cl.do("GET", "", "", nil, &s)
	return s.Edges, err
}

func (cl *client) degree(v uint32) (uint32, error) {
	var r struct {
		Degree uint32 `json:"degree"`
	}
	err := cl.do("GET", "/vertices/"+strconv.FormatUint(uint64(v), 10)+"/degree", "", nil, &r)
	return r.Degree, err
}

func (cl *client) neighbors(v uint32, limit int) error {
	return cl.do("GET", fmt.Sprintf("/vertices/%d/neighbors?limit=%d", v, limit), "", nil, nil)
}

func (cl *client) khop(v uint32, depth int) error {
	return cl.do("GET", fmt.Sprintf("/khop?src=%d&depth=%d", v, depth), "", nil, nil)
}

func (cl *client) kernel(name string) error {
	return cl.do("POST", "/kernels/"+name, "", nil, nil)
}

// kernels are the analytics the served workloads request, in rotation.
var kernels = []string{"bfs", "pagerank", "cc"}

// servedBase is the preloaded graph: the stream workload's rMat base,
// encoded as binary preload bodies.
type servedBase struct {
	keys   []uint64
	bodies [][]byte
}

func newServedBase(sz size, seed uint64) servedBase {
	es := streamBase(sz, seed)
	var sb servedBase
	sb.keys = make([]uint64, len(es))
	for i, e := range es {
		sb.keys[i] = e.Key()
	}
	src, dst := splitEdges(es)
	for lo := 0; lo < len(src); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(src))
		sb.bodies = append(sb.bodies, httpserve.AppendBinaryEdges(nil, src[lo:hi], dst[lo:hi]))
	}
	return sb
}

// setupServed boots a daemon on a fresh data dir and preloads the base
// graph over HTTP, servedSetups times; it keeps the last daemon and
// returns each set-up's seconds, timed from boot until the preload is
// flushed.
func setupServed(c config, sb servedBase) (*daemon, string, []float64, error) {
	var setups []float64
	var d *daemon
	var dir string
	for i := 0; i < servedSetups; i++ {
		if d != nil {
			d.kill()
			if err := os.RemoveAll(dir); err != nil {
				return nil, "", nil, err
			}
		}
		dir = filepath.Join(c.workDir, fmt.Sprintf("data-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", nil, err
		}
		t := time.Now()
		var err error
		if d, err = startDaemon(c, dir); err != nil {
			return nil, "", nil, err
		}
		cl := newClient(d)
		err = preload(cl, sb)
		cl.close()
		if err != nil {
			d.kill()
			return nil, "", nil, fmt.Errorf("preload: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return d, dir, setups, nil
}

// preload posts the base bodies from maxConns connections, flushing after
// every preloadGroup requests so the writer queues never saturate.
func preload(cl *client, sb servedBase) error {
	for lo := 0; lo < len(sb.bodies); lo += preloadGroup {
		group := sb.bodies[lo:min(lo+preloadGroup, len(sb.bodies))]
		errs := make(chan error, maxConns)
		for w := 0; w < maxConns; w++ {
			go func(w int) {
				for i := w; i < len(group); i += maxConns {
					if err := cl.postEdges(group[i]); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(w)
		}
		var first error
		for w := 0; w < maxConns; w++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			return first
		}
		if err := cl.flush(); err != nil {
			return err
		}
	}
	return nil
}

// degreeSample draws the vertices a final check compares: half Zipf hubs
// (where writes concentrate), half uniform.
func degreeSample(seed uint64, n uint32) []uint32 {
	z := gen.NewZipf(n, zipfTheta, seed)
	rng := gen.NewRNG(seed ^ 0xc4ec)
	s := make([]uint32, checkSample)
	for i := range s {
		if i%2 == 0 {
			s[i] = z.Vertex()
		} else {
			s[i] = rng.Uint32n(n)
		}
	}
	return s
}

// checkDaemon runs the final check against the reference and returns each
// degree lookup's latency in milliseconds.
func checkDaemon(what string, cl *client, ref edgeSet, sample []uint32) ([]float64, error) {
	edges, err := cl.numEdges()
	if err != nil {
		return nil, fmt.Errorf("%s: stats: %w", what, err)
	}
	lat := make([]float64, 0, len(sample))
	err = checkServed(what, edges, func(v uint32) (uint32, error) {
		t := time.Now()
		d, err := cl.degree(v)
		lat = append(lat, msSince(t))
		return d, err
	}, ref, sample)
	return lat, err
}

// recoverDaemon SIGKILLs d and restarts lsgraphd on the same data dir,
// restarts times; it returns the last daemon and each cycle's seconds
// from the kill until the restarted daemon answered with every
// acknowledged edge present. No checkpoint is taken, so every restart
// replays the whole WAL.
func recoverDaemon(c config, d *daemon, dir string, ref edgeSet) (*daemon, []float64, error) {
	var secs []float64
	for i := 0; i < restarts; i++ {
		t := time.Now()
		d.kill()
		nd, err := startDaemon(c, dir)
		if err != nil {
			return d, nil, fmt.Errorf("restart: %w", err)
		}
		d = nd
		cl := newClient(d)
		edges, err := cl.numEdges()
		cl.close()
		if err != nil {
			return d, nil, fmt.Errorf("restart: stats: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
		if edges != ref.numEdges() {
			return d, nil, fmt.Errorf("restart: %d edges, reference has %d", edges, ref.numEdges())
		}
	}
	return d, secs, nil
}

// isShed reports whether err is a 429. Every error counts as a failed
// operation; 429s are also counted apart as shed load.
func isShed(err error) bool {
	var st errStatus
	return errors.As(err, &st) && int(st) == http.StatusTooManyRequests
}
