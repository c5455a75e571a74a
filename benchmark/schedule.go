package main

import (
	"math"
	"slices"

	"lsgraph/internal/gen"
)

// poissonSchedule returns the due offsets, in seconds from the start of
// the run, of a Poisson arrival process at rate per second over span
// seconds, conditioned on its expected count round(rate × span): given
// its count, a Poisson process's arrival times are that many uniform
// draws, sorted. Fixing the count keeps the offered load the same for
// every seed; the same seed gives the same schedule.
func poissonSchedule(seed uint64, rate, span float64) []float64 {
	rng := gen.NewRNG(seed)
	due := make([]float64, int(math.Round(rate*span)))
	for i := range due {
		due[i] = rng.Float64() * span
	}
	slices.Sort(due)
	return due
}

// shuffledKinds returns n operation kinds in a seeded random order, with
// kind k appearing round(share[k] × n) times and the rounding remainder
// given to kind 0.
func shuffledKinds(rng *gen.RNG, n int, share []float64) []int {
	kinds := make([]int, 0, n)
	for k := len(share) - 1; k > 0; k-- {
		for c := int(math.Round(share[k] * float64(n))); c > 0 && len(kinds) < n; c-- {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, 0)
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint32n(uint32(i + 1)))
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	return kinds
}
