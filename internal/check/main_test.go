package check

import (
	"flag"
	"os"
	"runtime"
	"testing"

	"lsgraph/internal/parallel"
)

// minTestProcs keeps several kernel workers live under -race on any host;
// see internal/algo/main_test.go for why GOMAXPROCS is raised with Procs.
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
