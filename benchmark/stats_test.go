package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
