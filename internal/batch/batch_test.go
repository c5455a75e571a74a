package batch

import (
	"math/rand"
	"sort"
	"testing"
)

// TestDedupGroupParallelMatchesSequential checks the two dedup + group
// discovery implementations against each other on skewed sorted keys with
// heavy duplication.
func TestDedupGroupParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{ParallelMin, ParallelMin * 4, 100000} {
		ks := make([]uint64, n)
		for i := range ks {
			v := uint64(rng.Intn(300)) // few sources -> big skewed groups
			d := uint64(rng.Intn(2000))
			ks[i] = v<<32 | d
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })

		var seq Scratch
		wantKeys, wantGroups := seq.groupSeq(append([]uint64(nil), ks...), nil)

		for _, p := range []int{2, 3, 8} {
			var par Scratch
			gotKeys, gotGroups := par.Group(append([]uint64(nil), ks...), p, nil)
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("n=%d p=%d: %d keys want %d", n, p, len(gotKeys), len(wantKeys))
			}
			for i := range wantKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("n=%d p=%d: key %d got %d want %d", n, p, i, gotKeys[i], wantKeys[i])
				}
			}
			if len(gotGroups) != len(wantGroups) {
				t.Fatalf("n=%d p=%d: %d groups want %d", n, p, len(gotGroups), len(wantGroups))
			}
			for i := range wantGroups {
				if gotGroups[i] != wantGroups[i] {
					t.Fatalf("n=%d p=%d: group %d got %+v want %+v",
						n, p, i, gotGroups[i], wantGroups[i])
				}
			}
		}
	}
}
