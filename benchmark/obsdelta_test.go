package main

import "testing"

func TestHistDeltaQuantile(t *testing.T) {
	before := hist{Count: 10, Sum: 5000, Buckets: map[string]float64{"le_2^9": 10}}
	after := hist{Count: 110, Sum: 80000, Buckets: map[string]float64{"le_2^9": 10, "le_2^10": 50, "le_2^11": 50}}
	d := histDelta(after, before)
	if d.Count != 100 || d.Sum != 75000 || len(d.Buckets) != 2 {
		t.Fatalf("delta %+v", d)
	}
	// Half the samples fill (512, 1024]: the median sits at its top, and
	// p75 halfway through (1024, 2048].
	if got := d.quantile(0.5); got != 1024 {
		t.Errorf("p50 = %g, want 1024", got)
	}
	if got := d.quantile(0.75); got != 1536 {
		t.Errorf("p75 = %g, want 1536", got)
	}
	if got := (hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
}
