package main

import (
	"slices"
	"testing"

	"lsgraph/internal/gen"
)

func TestPoissonScheduleReproducible(t *testing.T) {
	a := poissonSchedule(7, 400, 3)
	b := poissonSchedule(7, 400, 3)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 400, 3); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 1200 {
		t.Fatalf("%d arrivals, want rate × span = 1200", len(a))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 3 {
		t.Fatal("arrivals are not sorted within [0, span)")
	}
}

func TestMixedOpsFixedMix(t *testing.T) {
	ops, writes := mixedOps(3, 5, 1<<10)
	a, _ := mixedOps(3, 5, 1<<10)
	if !slices.Equal(ops, a) {
		t.Fatal("same seed gave different operation streams")
	}
	count := make([]int, len(mixedShare))
	for _, op := range ops {
		count[op.kind]++
	}
	n := float64(len(ops))
	for k, share := range mixedShare {
		if got := float64(count[k]) / n; got < share-0.001 || got > share+0.001 {
			t.Errorf("kind %d: share %.4f, want %.2f", k, got, share)
		}
	}
	if writes != count[opWrite] {
		t.Errorf("%d write batches for %d writes", writes, count[opWrite])
	}
}

func TestShuffledKindsKeepsCounts(t *testing.T) {
	kinds := shuffledKinds(gen.NewRNG(1), 10, []float64{0.5, 0.3, 0.2})
	count := map[int]int{}
	for _, k := range kinds {
		count[k]++
	}
	if count[0] != 5 || count[1] != 3 || count[2] != 2 {
		t.Fatalf("counts %v, want 5/3/2", count)
	}
}
