package algo

import (
	"lsgraph/internal/parallel"
)

// workers returns an upper bound on the worker indexes parallel.ForChunkW
// and ForBlockedW can pass to their bodies for a requested parallelism p,
// for sizing per-worker state.
func workers(p int) int {
	if p <= 0 {
		return parallel.Procs
	}
	return p
}

// padF64 is a float64 padded out to a 64-byte cache line, so per-worker
// accumulator slots in a slice never share a line (no false sharing).
type padF64 struct {
	v float64
	_ [56]byte
}
