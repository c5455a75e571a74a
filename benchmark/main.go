// Command benchmark is LSGraph's one benchmark: three workloads (stream,
// ingest, mixed), their correctness checks, the end-to-end metrics of an
// untraced run and, with -trace 1, the per-layer metrics of a separate
// traced in-process run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is one workload run: operations attempted and failed, and its
// metrics. A failed correctness check is returned as an error instead.
type outcome struct {
	attempted, failed int64
	e2e               metrics
	// untraced holds the medians the traced run compares itself with:
	// per-call milliseconds on stream, write latency and shed writes on
	// the served workloads.
	untraced map[string]float64
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string // lsgraphd binary for the served workloads
	workDir  string // scratch directory for data dirs and span files
}

func main() {
	var c config
	var secs int
	var trace int
	flag.StringVar(&c.workload, "workload", "", "stream | ingest | mixed")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = also make the traced run and print per-layer metrics")
	flag.StringVar(&c.daemon, "daemon", "", "path to the lsgraphd binary built from this tree")
	flag.StringVar(&c.workDir, "workdir", ".bench_build/work", "scratch directory for data dirs and span files")
	flag.Parse()
	c.seconds = float64(secs)
	c.trace = trace == 1
	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(c config) error {
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if c.workload != "stream" && c.daemon == "" {
		return fmt.Errorf("-workload %s needs -daemon, the lsgraphd binary", c.workload)
	}
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return err
	}
	var (
		out outcome
		err error
	)
	start := time.Now()
	switch c.workload {
	case "stream":
		out, err = runStream(c)
	case "ingest":
		out, err = runIngest(c)
	case "mixed":
		out, err = runMixed(c)
	default:
		return fmt.Errorf("unknown -workload %q (want stream, ingest or mixed)", c.workload)
	}
	if err != nil {
		return err
	}
	report(c.workload+" (untraced)", out.e2e)
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if c.trace {
		layers, err := runTraced(c, out)
		if err != nil {
			return err
		}
		report(c.workload+" (traced)", layers)
		res.Metrics = layers
	}
	fmt.Printf("# %s: %d attempted, %d failed, %.1fs wall\n", c.workload, out.attempted, out.failed, time.Since(start).Seconds())
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// report prints every metric by name and unit, one per line, before the
// final JSON line.
func report(title string, m metrics) {
	fmt.Printf("# %s\n", title)
	for _, k := range sortedKeys(m) {
		fmt.Printf("#   %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys(m metrics) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
