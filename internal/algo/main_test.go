package algo

import (
	"flag"
	"os"
	"runtime"
	"testing"

	"lsgraph/internal/parallel"
)

// minTestProcs is the least parallelism the tests run with. parallel.Procs
// defaults to GOMAXPROCS, and on a 1-core host the kernels would then run
// every loop inline on one goroutine. Raising Procs alone is not enough:
// with one P the workers run one after another, each chunk claim's atomic
// orders them, and -race sees no overlap. Raising GOMAXPROCS too lets the
// OS interleave the workers even on a single core, so a data race in a
// kernel is reported on any host. Benchmark runs keep the host's own
// parallelism, so their timings stay comparable.
const minTestProcs = 4

func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		if runtime.GOMAXPROCS(0) < minTestProcs {
			runtime.GOMAXPROCS(minTestProcs)
		}
		if parallel.Procs < minTestProcs {
			parallel.Procs = minTestProcs
		}
	}
	os.Exit(m.Run())
}
