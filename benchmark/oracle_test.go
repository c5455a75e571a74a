package main

import (
	"slices"
	"strings"
	"testing"

	"lsgraph/internal/refgraph"
)

// path 0-1-2 and a separate edge 3-4, symmetric.
func smallRef() *refgraph.Graph {
	g := refgraph.New(6)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {3, 4}} {
		g.Insert(e[0], e[1])
		g.Insert(e[1], e[0])
	}
	return g
}

func TestReferenceKernels(t *testing.T) {
	g := smallRef()
	if got := refBFSLevels(g, 0); !slices.Equal(got, []int32{0, 1, 2, -1, -1, -1}) {
		t.Errorf("levels %v", got)
	}
	if got := refComponents(g); !slices.Equal(got, []uint32{0, 0, 0, 3, 3, 5}) {
		t.Errorf("components %v", got)
	}
}

func TestCheckLevelsRejectsWrongLevel(t *testing.T) {
	want := refBFSLevels(smallRef(), 0)
	if err := checkLevels(want, want); err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(want)
	bad[2] = 1
	if err := checkLevels(bad, want); err == nil {
		t.Fatal("a wrong BFS level passed")
	}
}

func TestCheckPartitionRejectsMergeAndSplit(t *testing.T) {
	want := refComponents(smallRef())
	renamed := []uint32{9, 9, 9, 4, 4, 1}
	if err := checkPartition(renamed, want); err != nil {
		t.Fatalf("renamed labels rejected: %v", err)
	}
	merged := []uint32{0, 0, 0, 0, 0, 5}
	if err := checkPartition(merged, want); err == nil {
		t.Fatal("merged components passed")
	}
	split := []uint32{0, 0, 2, 3, 3, 5}
	if err := checkPartition(split, want); err == nil {
		t.Fatal("split component passed")
	}
}

func TestCheckServedRejectsDroppedBatch(t *testing.T) {
	base := []uint64{1<<32 | 2, 2<<32 | 1}
	batches := zipfBatches(5, 64, 4, 16)
	all := []bool{true, true, true, true}
	ref := reference(base, batches, all)
	sample := degreeSampleOf(ref)
	served := func(s edgeSet) func(uint32) (uint32, error) {
		return func(v uint32) (uint32, error) { return s.degree(v), nil }
	}
	if err := checkServed("ok", ref.numEdges(), served(ref), ref, sample); err != nil {
		t.Fatalf("the reference failed against itself: %v", err)
	}
	// A server that lost one acknowledged batch.
	lost := reference(base, batches, []bool{true, false, true, true})
	err := checkServed("lost", lost.numEdges(), served(lost), ref, sample)
	if err == nil || !strings.Contains(err.Error(), "edges") {
		t.Fatalf("a dropped batch passed the edge count: %v", err)
	}
	// Same count, wrong adjacency: a degree must differ.
	err = checkServed("degree", ref.numEdges(), func(v uint32) (uint32, error) {
		d := ref.degree(v)
		if v == sample[0] {
			d++
		}
		return d, nil
	}, ref, sample)
	if err == nil {
		t.Fatal("a wrong degree passed")
	}
	// A 429'd batch is not acknowledged, so the reference leaves it out.
	if r := reference(base, batches, []bool{false, false, false, false}); r.numEdges() != 2 {
		t.Fatalf("unacknowledged batches counted: %d edges", r.numEdges())
	}
}

// degreeSampleOf returns every source vertex of s.
func degreeSampleOf(s edgeSet) []uint32 {
	var out []uint32
	for _, k := range s {
		if v := uint32(k >> 32); len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}
